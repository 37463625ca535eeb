"""A complete rendezvous navigation run, from config to fix timeline.

Runs the low-orbit preset (``leo_preset()``) at reduced duration: truth
orbits are propagated, GPS observables synthesized with thermal noise,
multipath, and ionosphere, the 71-state filter processes every epoch, and the
sensor-constrained integer search fires once enough channels mature.  The
same entry point backs the command-line tool; here the report object is
inspected directly, then a three-seed mini-sweep shows the run-to-run spread.
"""

import tempfile

from cdgps.scenario import leo_preset, run_scenario

cfg = leo_preset()
cfg.duration = 5400.0      # one orbit instead of the full scenario
cfg.seed = 1

print(f"scenario  : {cfg.name}")
print(f"duration  : {cfg.duration:.0f} s   coupling: {cfg.coupling_mode}")
print(f"separation: {cfg.separation:.0f} m\n")

report = run_scenario(cfg)
s = report.summary

print(f"epochs processed    : {s['n_epochs']} ({s['n_skipped']} skipped)")
print(f"first fix           : t = {s['first_fix_time']:.0f} s")
print(f"fix events          : {s['n_fix_events']} "
      f"({s['n_fixed_integers']} integers, "
      f"wrong-fix rate {s['wrong_fix_rate']:.3f})")
print(f"channels fixed now  : {s['final_fixed_channels']}")
print(f"relative position   : RMS {100 * s['rms_pos_pre_fix']:.1f} cm before "
      f"first fix, {100 * s['rms_pos_post_fix']:.1f} cm after")
print(f"relative velocity   : RMS {1e3 * s['rms_vel_post_fix']:.3f} mm/s "
      "after first fix")

print("\nfix timeline:")
for ev in report.fix_events:
    kind = "full" if ev["full"] else "partial"
    print(f"  t={ev['time']:6.0f} s  {kind:7s} n={len(ev['channels']):2d} "
          f"wrong={ev['wrong']}  P(success)={ev['success_prob']:.3f}")

with tempfile.TemporaryDirectory(prefix="cdgps-demo-") as out_dir:
    print(f"\nreports written to {out_dir} (removed on exit):")
    for path in sorted(report.write(out_dir).values()):
        print(f"  {path.name:12s} {path.stat().st_size:8d} bytes")

print("\nthree-seed spread (same scenario, fresh noise):")
print(f"{'seed':>5s} {'events':>7s} {'wrong':>6s} {'post-fix RMS':>13s}")
for seed in (1, 2, 3):
    c = leo_preset()
    c.duration = 5400.0
    c.seed = seed
    r = run_scenario(c).summary
    print(f"{seed:5d} {r['n_fix_events']:7d} {r['n_wrong_fix_events']:6d} "
          f"{100 * r['rms_pos_post_fix']:10.2f} cm")
