"""Scenario for the `fig2-sweep` workload: the bundled `fig2` scenario
(sine plant, boxed input, projected law) with its schedule and horizon cut
to an eighth.  Everything else is fig2's own, so the step size, the kernel
and the sweep are those of `ofo reproduce fig2` at an eighth of its steps.

    python3 perfbench/short.py <bundled scenario.yaml>   # prints the YAML
"""

from __future__ import annotations

import sys

import yaml

SHARE = 0.125


def shorten(text: str, share: float = SHARE) -> str:
    doc = yaml.safe_load(text)
    doc["schedule"] = [[t * share, w] for t, w in doc["schedule"]]
    doc["sim"]["t_end"] = doc["sim"]["t_end"] * share
    return yaml.safe_dump(doc, sort_keys=False)


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        sys.stdout.write(shorten(fh.read()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
