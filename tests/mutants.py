"""Mutation runner: `python -m tests.mutants [NAME ...]`, from the repo root.

Each mutant replaces one string in one source file; the string must occur
there exactly once. For each mutant the runner copies the tree into a
temporary directory, applies the mutant and runs pytest on `tests/` without
the two byte-pin files, then prints the tests that fail, which are the
tests that kill it. A byte pin fails on any change, right or wrong, so a
mutant only a pin kills counts as surviving. The exit status is 1 when a
mutant survives. Standard library only; pytest does not collect this file.

W1-W3 break the JSON shape walker. M1-M12 are the model and trainer
mutants of ROADMAP item 12.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
PINS = ("tests/test_result_bytes.py", "tests/test_extract_bytes.py")

SERIALIZE = "src/flowgnn/serialize.py"
TRAINING = "src/flowgnn/training.py"
MODEL = "src/flowgnn/model.py"

# name: (what it breaks, file, the string replaced, its replacement)
MUTANTS = {
    "W1": ("a bool passes as an integer", SERIALIZE,
           "(shape is bool or not isinstance(value, bool))",
           "(shape in (bool, int) or not isinstance(value, bool))"),
    "W2": ("a missing required key reads as None", SERIALIZE,
           'raise ValueError(f"{path} is missing")', "out[name] = None"),
    "W3": ("[shape] checks only its first item", SERIALIZE,
           '_walk(item, shape[0], f"{where}[{i}]") for',
           '_walk(item, shape[0], f"{where}[{i}]") if i == 0 else item for'),
    "M1": ("optimizer.step() removed", TRAINING, "optimizer.step()", "pass"),
    "M2": ("the last epoch's weights kept", TRAINING, "model.load_state(best_state)", "pass"),
    "M3": ("grid_search keeps the worst cell", TRAINING,
           "fit.best_val > best_fit.best_val", "fit.best_val < best_fit.best_val"),
    "M4": ("batch norm's eval pass uses batch statistics", "src/flowgnn/nn/layers.py",
           "centered = x.data - self.running_mean\n            var = self.running_var",
           "centered = x.data - x.data.mean(axis=0)\n"
           "            var = (centered * centered).mean(axis=0)"),
    "M5": ("no virtual self-loop in the degree", MODEL,
           "np.bincount(ends, minlength=graph.num_nodes) + 1.0",
           "np.bincount(ends, minlength=graph.num_nodes) + 0.0"),
    "M6": ("sent rows scattered to dst", MODEL,
           "scatter_rows(e, self.batch.src, self.w_out, n)",
           "scatter_rows(e, self.batch.dst, self.w_out, n)"),
    "M7": ("oc center fixed at zero", MODEL,
           "self.center = self.embed(inputs).data.mean(axis=0, keepdims=True).copy()",
           "self.center = np.zeros((1, self.num_hidden))"),
    "M8": ("evaluate_metrics defaults to the val split", TRAINING,
           "job.split.test if indices is None", "job.split.val if indices is None"),
    "M9": ("standardizer fit on every row, test rows too", TRAINING,
           "np.vstack([rows[i] for i in split.train])", "np.vstack(list(rows))"),
    "M10": ("Adam without bias correction on m", "src/flowgnn/nn/optim.py",
            "update = m / m_scale", "update = m.copy()"),
    "M11": ("ae score not divided by edge count", MODEL,
            "sq[lo:hi].sum() / (hi - lo)", "sq[lo:hi].sum()"),
    "M12": ("patience test > instead of >=", TRAINING,
            "bad_epochs >= config.patience", "bad_epochs > config.patience"),
}


def killers(name: str) -> list[str]:
    """The tests that fail, or error, with the mutant applied."""
    _, path, old, new = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        for part in COPIED:
            source, target = ROOT / part, Path(tmp) / part
            if source.is_dir():
                shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(source, target)
        mutated = Path(tmp) / path
        text = mutated.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit(f"{name}: {path} holds {old!r} {text.count(old)} times, not once")
        mutated.write_text(text.replace(old, new), encoding="utf-8")
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE",
             *(f"--ignore={pin}" for pin in PINS), "tests"],
            cwd=tmp, env={**os.environ, "PYTHONPATH": str(Path(tmp) / "src")},
            capture_output=True, text=True)
    return re.findall(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.M)


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - set(MUTANTS))
    if unknown:
        raise SystemExit(f"unknown mutants {unknown}; known: {', '.join(MUTANTS)}")
    survivors = []
    for name in names or MUTANTS:
        tests = killers(name)
        print(f"{name} ({MUTANTS[name][0]}): killed by {len(tests)} tests", flush=True)
        for test in tests:
            print(f"    {test}", flush=True)
        if not tests:
            survivors.append(name)
    if survivors:
        print(f"surviving: {', '.join(survivors)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
