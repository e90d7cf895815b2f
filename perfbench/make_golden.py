"""Record the canonical answers that have no independent check.

    python3 perfbench/make_golden.py        # from the root of a checkout

Writes perfbench/golden.json: the suite report `f1kit check` prints for each
(model, suite) pair of the group-checks workload, and the exit code and
stdout of each fixed command of the cli-cold workload.  The file in the
repository was recorded from the seed package; regenerate it only when an
output is meant to change.
"""

import json
import os
from pathlib import Path
import subprocess
import sys

HERE = Path(__file__).resolve().parent


def main() -> int:
    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(HERE)]
    from workloads import CLI_CATALOG, DATA, group_catalog, model_selector

    env = {k: v for k, v in os.environ.items() if k != "F1KIT_MAX_SCALE"}
    env["PYTHONPATH"] = str(root / "src")

    def cli(argv):
        proc = subprocess.run([sys.executable, "-m", "f1kit", *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        if "Traceback" in proc.stderr:
            raise RuntimeError(f"f1kit {' '.join(argv)} crashed:\n{proc.stderr}")
        return proc.returncode, proc.stdout

    golden = {"group": {}, "cli": {}}
    for model, suite in group_catalog():
        _, out = cli(["check", model_selector(model), "--suite", suite])
        golden["group"][f"{model} {suite}"] = json.loads(out)["suite"][suite]
    for command in CLI_CATALOG:
        code, out = cli(command.replace("{data}", str(DATA)).split())
        golden["cli"][command] = {"exit": code, "stdout": out}
    with open(HERE / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
