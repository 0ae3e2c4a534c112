#!/usr/bin/env python3
"""Run the full default study and print its summary table.

Writes the bundled default scenario into the output directory, runs the
variant x level x seed sweep through the CLI code path, and prints the
report. Use --quick for a small smoke-scale run. To sweep another
scenario, or without per-run artifacts, run `gatedpf sweep --scenario FILE
--out DIR [--no-artifacts]`.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import yaml

from gatedpf.cli import main as cli_main
from gatedpf.scenario import default_scenario_dict

REPO_ROOT = Path(__file__).resolve().parents[1]


def quick_scenario_dict() -> dict:
    doc = default_scenario_dict()
    doc["run"]["horizon"] = 300
    doc["run"]["seeds"] = doc["run"]["seeds"][:2]
    doc["filter"]["particles"] = 100
    return doc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "runs" / "default")
    parser.add_argument("--quick", action="store_true", help="small smoke-scale configuration")
    args = parser.parse_args()

    doc = quick_scenario_dict() if args.quick else default_scenario_dict()
    scenario_path = args.out / "scenario.yaml"
    scenario_path.parent.mkdir(parents=True, exist_ok=True)
    scenario_path.write_text(yaml.safe_dump(doc, sort_keys=False))

    start = time.time()
    code = cli_main(["sweep", "--scenario", str(scenario_path), "--out", str(args.out)])
    if code != 0:
        return code
    print(f"sweep finished in {time.time() - start:.0f}s", file=sys.stderr)
    return cli_main(["report", "--run", str(args.out)])


if __name__ == "__main__":
    sys.exit(main())
