"""The verification harness: named numeric checks with frozen tolerances.

Run:  python demos/06_verification_report.py

The same checks back `cliffmod verify --all` on the command line.
"""

import json

from cliffmod.harness import CHECK_BUILDERS, DEFAULT_THRESHOLDS, run_checks

print("== the tolerance table every check reads from ==")
for name, value in DEFAULT_THRESHOLDS.items():
    print(f"{name:28s} {value}")

print()
print("== available checks ==")
print(", ".join(sorted(CHECK_BUILDERS)))

print()
print("== running a fast subset ==")
reports = run_checks(["clifford", "mobius", "kernel", "monogenic", "cosets", "abscissa"], seed=0)
for rep in reports:
    print(rep.summary_line())

print()
print("== the JSON shape consumed by downstream tooling ==")
print(json.dumps(reports[2].to_json_dict(), indent=2, sort_keys=True))

print()
print("== overriding a tolerance flips the verdict, not the measurement ==")
strict, = run_checks(["kernel"], thresholds={"kernel_multiplicativity": 0.0})
print(strict.summary_line())
