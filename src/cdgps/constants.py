"""Physical and GPS signal constants (SI units)."""

import numpy as np

# Fundamental
SPEED_OF_LIGHT = 299792458.0        # m/s

# Earth (EGM-consistent zonal gravity, spherical-harmonic degree 2)
MU_EARTH = 3.986004418e14           # m^3/s^2
R_EARTH = 6378137.0                 # m, equatorial radius
J2_EARTH = 1.08262668e-3            # oblateness coefficient

# GPS L1 C/A signal
L1_FREQUENCY = 1575.42e6                        # Hz
L1_WAVELENGTH = SPEED_OF_LIGHT / L1_FREQUENCY   # m (~0.1903)
CA_CHIP_RATE = 1.023e6                          # chips/s
CA_CHIP_LENGTH = SPEED_OF_LIGHT / CA_CHIP_RATE  # m (~293.05)

# GPS constellation geometry (nominal almanac-level values)
GPS_SEMIMAJOR_AXIS = 26560e3        # m
GPS_INCLINATION = np.deg2rad(55.0)  # rad
GPS_NUM_PLANES = 6
GPS_NUM_SATELLITES = 31

# Transmit antenna pattern half-cone angles
GPS_MAINLOBE_HALFCONE = np.deg2rad(23.5)   # rad
GPS_SIDELOBE_HALFCONE = np.deg2rad(60.0)   # rad

# Occultation mask: spherical Earth plus an atmosphere shell that signals
# may not graze.
ATMOSPHERE_MASK_HEIGHT = 50e3       # m

ARCSEC = np.deg2rad(1.0 / 3600.0)   # rad per arcsecond
