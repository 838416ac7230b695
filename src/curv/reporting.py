"""Deterministic report emission.

Reports carry no timestamps and format floats with repr, so identical
configuration and seed produce byte-identical files.
"""
from __future__ import annotations

import json
from typing import Any, Iterable, Sequence

import numpy as np

TOOL_NAME = "curv"


def jsonable(obj: Any) -> Any:
    """Recursively convert numpy types and containers to plain
    JSON-serializable values."""
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def meta_block(command: str, config: dict, seed: int | None, tolerances: dict) -> dict:
    from . import __version__

    return {
        "tool": TOOL_NAME,
        "version": __version__,
        "command": command,
        "config": jsonable(dict(sorted(config.items()))),
        "seed": seed,
        "tolerances": jsonable(dict(sorted(tolerances.items()))),
    }


def render_json(meta: dict, results: Iterable) -> str:
    payload = {"meta": jsonable(meta), "results": jsonable(list(results))}
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def render_csv(columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    def cell(v) -> str:
        if isinstance(v, (bool, np.bool_)):
            return "1" if v else "0"
        if isinstance(v, (int, np.integer)):
            return repr(int(v))
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        return str(v)

    lines = [",".join(columns)]
    lines += [",".join(cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def emit(text: str, out_path: str | None) -> None:
    """Write to a file when a path is given, otherwise to stdout."""
    if out_path is None:
        print(text, end="")
    else:
        with open(out_path, "w") as fh:
            fh.write(text)
        print(f"wrote {out_path}")
