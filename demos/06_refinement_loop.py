#!/usr/bin/env python3
# The generate -> run -> diagnose -> patch loop, driven by a scripted
# provider. First a program that crashes once and is patched into shape,
# then one that never recovers, to show the rollback path.

import tempfile

from forge.consensus import ResearchPlan
from forge.errors import LoopError
from forge.execution import ExecutionParams, refinement_loop
from forge.providers import ScriptedChatProvider

plan = ResearchPlan(
    sections={
        "preprocessing": "none",
        "architecture": "identity",
        "implementation": "print a marker",
        "training": "none",
        "evaluation": "stdout check",
    },
    weights_at_finalization={"demo": 1.0},
    rounds_used=1,
)

BROKEN = """\
FILE: main.py
```
values = list(range(10))
print(values[28])
```
ENTRYPOINT: python main.py
"""

FIXED = """\
FILE: main.py
```
values = list(range(10))
print(values[-1])
```
ENTRYPOINT: python main.py
"""

limits = ExecutionParams(wall_seconds=30.0)

# --- crash once, then a good patch -----------------------------------
provider = ScriptedChatProvider([BROKEN, FIXED])
with tempfile.TemporaryDirectory() as tmp:
    artifact, result, trace = refinement_loop(
        plan, provider, r_max=3, limits=limits, workdir_root=tmp
    )

print("One bad revision, one patch:")
for rec in trace.revisions:
    failure = rec.failure.category if rec.failure else "-"
    print(f"  rev {rec.revision}: exit={rec.result.exit_code} failure={failure}")
print(f"  refinements={trace.refinements} succeeded={trace.succeeded}")
print(f"  final stdout: {result.stdout.strip()!r}")
print()

# --- never recovers: the loop gives up and rolls back -----------------
provider = ScriptedChatProvider([BROKEN, BROKEN, BROKEN, BROKEN])
with tempfile.TemporaryDirectory() as tmp:
    try:
        refinement_loop(plan, provider, r_max=3, limits=limits, workdir_root=tmp)
    except LoopError as exc:
        print("Exhausted loop:")
        print(f"  {exc}")
        for rec in exc.trace.revisions:
            print(
                f"  rev {rec.revision}: failure={rec.failure.category}"
                f" evidence={rec.failure.evidence!r}"
            )
        print(f"  rollback artifact revision: {exc.rollback.revision}")
