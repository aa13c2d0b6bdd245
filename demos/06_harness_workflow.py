"""File-based workflow: config in, verified artifacts out.

Everything the library does interactively is also available as a batch
pipeline: a flat key=value config produces a trace CSV, a JSON summary,
and a manifest with content hashes. The manifest alone is enough to
reproduce the run byte for byte, and the report step refuses to merge
outputs whose hashes no longer match.

The same flow is exposed on the command line:

    loopsim gen-data --kind linear --rows 500 --cols 10 --seed 42
    loopsim run --config my.cfg --out-dir out/
    loopsim report out/manifest.json --out-dir merged/
"""

import dataclasses
import tempfile
from pathlib import Path

from loopsim.harness import (
    build_config,
    config_from_manifest,
    execute,
    report,
    sha256_file,
)

with tempfile.TemporaryDirectory(prefix="loopsim_demo_") as tmp:
    work = Path(tmp)

    config = build_config({
        "experiment": "density_trace",
        "kind": "linear", "rows": "300", "cols": "6", "noise": "1.0",
        "data_seed": "42",
        "setting": "sampling", "usage": "1.0", "adherence": "0.0",
        "steps": "400", "seed": "7", "repeats": "2",
        "out_dir": str(work / "run1"),
    })
    result = execute(config)
    print("run wrote:")
    for path in result.output_paths:
        print("  ", path)
    print("  ", result.manifest_path)

    rerun = execute(dataclasses.replace(config_from_manifest(result.manifest_path),
                                        out_dir=str(work / "run2")))
    same = (sha256_file(result.out_dir / "trace.csv")
            == sha256_file(rerun.out_dir / "trace.csv"))
    print(f"\nrerun from manifest byte-identical: {same}")

    merged = report([result.manifest_path, rerun.manifest_path], work / "merged")
    print(f"report merged {merged['row_counts']['traces']} trace rows from "
          f"{len(merged['groups'])} config group(s) into {work / 'merged'}")
