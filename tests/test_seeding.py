"""Guard against per-sample seeding.

Seeding a Mersenne Twister costs far more than a draw, so a sampled
check seeds one stream per call, in `SamplePlan.rng_for`, and draws
every sample from it.  This test fails when any other function of
`src/polaris` constructs a `random.Random` or re-seeds a stream.
"""

import ast
import shutil
from pathlib import Path

import polaris

PACKAGE = Path(polaris.__file__).resolve().parent

SEEDING_SITES = ["verify.SamplePlan.rng_for"]


def _is_seeding(call: ast.Call) -> bool:
    """`random.Random(...)`, `Random(...)` or any `.seed(...)` call."""
    fn = call.func
    if isinstance(fn, ast.Name):
        return fn.id == "Random"
    if isinstance(fn, ast.Attribute):
        return fn.attr == "seed" or (
            fn.attr == "Random" and isinstance(fn.value, ast.Name)
            and fn.value.id == "random")
    return False


def seeding_sites(package: Path) -> list:
    """`module.qualname` of every function or class body that seeds."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and _is_seeding(child):
                out.append(".".join(scope))
            visit(child, scope)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), [path.stem])
    return sorted(out)


def test_only_the_plan_seeds_a_stream():
    assert seeding_sites(PACKAGE) == SEEDING_SITES


def test_guard_flags_seeding_inside_the_sampler(tmp_path):
    copy = tmp_path / "polaris"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    verify = copy / "verify.py"
    text = verify.read_text(encoding="utf-8")
    draw = "        yield closure(space, _draw(getrandbits, N, hi))\n"
    assert text.count(draw) == 1
    verify.write_text(text.replace(
        draw, "        getrandbits = random.Random(plan.seed * 1_000_003 + _).getrandbits\n"
        + draw), encoding="utf-8")
    assert seeding_sites(copy) == sorted(SEEDING_SITES + ["verify._subspaces"])
