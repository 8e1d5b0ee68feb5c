#!/usr/bin/env python
"""Fail CI when new code re-grows per-call session plumbing.

Execution context is one :class:`repro.runtime.context.EngineSession`:
pipeline entry points take ``session=`` and nothing else. This lint
walks every module under ``src/repro`` except the runtime and telemetry
modules in ``ALLOWED_MODULES`` — the ones that build sessions and pools
or take an instrumentation handle as their *subject* — with ``ast`` and
fails when it finds

* a function/method *definition* declaring a ``workers`` or
  ``instrumentation`` parameter, or
* a *call* passing ``workers=`` / ``instrumentation=`` to anything other
  than the session/runtime constructors that legitimately take them
  (``EngineSession``, ``WorkerPool``, ``ChunkedExecutor``,
  ``Instrumentation``, ...).

The pipeline-plan refactor likewise collapsed the three hand-wired
copies of the Figure-10 recipe into one spec
(``repro.plan.figure10_spec``). A second check freezes the legacy
recipe constructors (``make_blockers`` / ``positive_rules`` /
``default_negative_rules``): outside their defining modules and the
registry factories (``RECIPE_ALLOWED``), new code — including
benchmarks and examples — must derive the recipe from the plan
(``figure10_spec`` / ``recipe_from_spec`` / ``figure10_workflow``).

New code should accept/resolve an ``EngineSession`` instead (or rely on
the ambient one). Run locally with ``python tools/lint_session_plumbing.py``.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

BANNED_KEYWORDS = {"workers", "instrumentation"}

#: The only modules allowed to declare or pass the keywords: the session
#: and its runtime primitives, plus the obs collectors and the store,
#: which take an instrumentation handle as their *subject* (events are
#: recorded onto it), not as threaded plumbing. Do not add entries —
#: route new code through EngineSession instead.
ALLOWED_MODULES = {
    "repro/runtime/context.py",
    "repro/runtime/executor.py",
    "repro/runtime/instrument.py",
    "repro/obs/trace.py",
    "repro/obs/metrics.py",
    "repro/obs/manifest.py",
    "repro/store/store.py",
}

#: Callees that legitimately accept the keywords everywhere: session
#: and runtime-primitive constructors, and the metrics collector (which
#: *consumes* an instrumentation handle).
ALLOWED_CALLEES = {
    "EngineSession",
    "WorkerPool",
    "ChunkedExecutor",
    "Instrumentation",
    "TracingInstrumentation",
    "collect_metrics",
}


#: The legacy Figure-10 recipe constructors, frozen to their defining
#: modules (and the registry factory that wraps one). Everywhere else
#: derives the recipe from the plan. Do not add entries.
RECIPE_ALLOWED = {
    "make_blockers": {"repro/casestudy/blocking_plan.py"},
    "positive_rules": {"repro/casestudy/workflows.py"},
    "default_negative_rules": {
        "repro/rules/negative.py",
        "repro/rules/factory.py",
    },
}


def _callee_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr  # obs.collect_metrics(...)
    if isinstance(func, ast.Name):
        return func.id
    return ""


def lint_recipe_calls(path: Path, rel: str) -> list[str]:
    """Flag hand-wired Figure-10 recipe calls outside the frozen layer.

    Only bare-name calls count: ``positive_rules`` is also a workflow
    *attribute* name, and ``obj.positive_rules`` accesses are fine.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
            continue
        name = node.func.id
        allowed = RECIPE_ALLOWED.get(name)
        if allowed is not None and rel not in allowed:
            problems.append(
                f"{rel}:{node.lineno}: call to {name}() hand-wires the "
                f"legacy Figure-10 recipe — derive it from the plan "
                f"(repro.plan.figure10_spec / recipe_from_spec / "
                f"figure10_workflow) instead"
            )
    return problems


def lint_file(path: Path, rel: str) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            declared = [
                a.arg
                for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
                if a.arg in BANNED_KEYWORDS
            ]
            for name in declared:
                problems.append(
                    f"{rel}:{node.lineno}: def {node.name}(... {name}= ...) "
                    f"declares per-call session plumbing — take session= "
                    f"instead"
                )
        elif isinstance(node, ast.Call):
            callee = _callee_name(node)
            if callee in ALLOWED_CALLEES:
                continue
            for keyword in node.keywords:
                if keyword.arg in BANNED_KEYWORDS:
                    problems.append(
                        f"{rel}:{node.lineno}: call to {callee or '<expr>'}() "
                        f"threads {keyword.arg}= — pass/enter an EngineSession "
                        f"instead"
                    )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        default=str(Path(__file__).resolve().parent.parent / "src"),
        help="source root to scan (default: <repo>/src)",
    )
    args = parser.parse_args(argv)
    src = Path(args.src)
    problems: list[str] = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        problems.extend(lint_recipe_calls(path, rel))
        if rel in ALLOWED_MODULES:
            continue
        problems.extend(lint_file(path, rel))
    # the recipe freeze also covers benchmarks and examples — the very
    # call sites the plan refactor deduplicated
    repo = src.parent
    for extra_root in ("benchmarks", "examples"):
        root = repo / extra_root
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*.py")):
            rel = f"{extra_root}/{path.relative_to(root).as_posix()}"
            problems.extend(lint_recipe_calls(path, rel))
    for problem in problems:
        print(problem)
    if problems:
        print(
            f"\n{len(problems)} session-plumbing violation(s); the allowed "
            f"modules are frozen in tools/lint_session_plumbing.py"
        )
        return 1
    print("session-plumbing lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
