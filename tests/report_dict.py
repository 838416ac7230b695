"""An inequality report row as a dict, for the tests that compare rows and
hash them: the row's fields in order, less those that are None."""

from dataclasses import fields


def report_dict(rep) -> dict:
    out = {f.name: getattr(rep, f.name) for f in fields(rep) if getattr(rep, f.name) is not None}
    out["x"] = rep.x.tolist()
    return out
