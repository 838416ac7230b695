"""The benchmark's `battery` workload runs the stages of the production
battery, `scripts/verify_all.py`; the two stage lists must stay equal, or the
benchmark times something other than what the battery runs."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def test_battery_stages_are_the_verify_all_stages():
    workloads = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    verify_all = _load("verify_all", ROOT / "scripts" / "verify_all.py")
    assert [(name, argv) for name, argv, _ in workloads.STAGES] == verify_all.STAGES


def test_a_stage_is_seeded_exactly_when_its_command_takes_seed():
    """The benchmark passes --seed to a battery stage exactly where the curv
    subcommand defines it: a seeded stage varies with the input seed, and no
    stage is handed an option it does not take."""
    from curv.cli import build_parser

    workloads = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    parser = build_parser()
    for name, argv, seeded in workloads.STAGES:
        args, extra = parser.parse_known_args(argv + ["--seed", "7"])
        assert (getattr(args, "seed", None) == 7 and extra == []) == seeded, name
