"""Boot the resident STA server the way ``repro serve --pack`` does.

The ``serve`` workload runs this script in its own process::

    python3 perfbench/serve_launcher.py --socket S --ready-file R \\
        --pack-dir P --designs c432,c3540,c7552 [--budget-bytes N] \\
        --rss-file F

It loads the committed 16-cell models, builds and compiles each design,
writes one ``.rpk`` pack per design, registers the designs in a
:class:`~repro.serve.DesignRegistry`, attaches the packs and serves on
the unix socket until SIGTERM. Once listening it writes the ready file:
a JSON object with the time each boot step took. On exit it writes its
own peak resident set size (MiB) to the rss file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pipeline  # noqa: E402

#: Admission slots. The benchmark's client keeps one request in flight,
#: so the second slot stays free and no request waits for admission.
MAX_CONCURRENCY = 2


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".part")
    tmp.write_text(text)
    os.replace(tmp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--ready-file", required=True)
    parser.add_argument("--pack-dir", required=True)
    parser.add_argument("--designs", required=True)
    parser.add_argument("--budget-bytes", type=int, default=None)
    parser.add_argument("--rss-file", required=True)
    args = parser.parse_args(argv)

    pipeline.import_package()
    from repro.core.sta_compiled import compile_design
    from repro.pack import pack_compiled_design
    from repro.serve import DesignRegistry, STAServer, ServeConfig

    steps = {"models_s": 0.0, "netlist_build_s": 0.0, "compile_s": 0.0,
             "pack_write_s": 0.0, "register_s": 0.0, "pack_attach_s": 0.0}

    def timed(step, fn, *a, **kw):
        t0 = time.perf_counter()
        try:
            return fn(*a, **kw)
        finally:
            steps[step] += time.perf_counter() - t0

    models = timed("models_s", pipeline.load_library_models)
    registry = DesignRegistry(budget_bytes=args.budget_bytes)
    pack_dir = Path(args.pack_dir)
    pack_dir.mkdir(parents=True, exist_ok=True)
    for name in args.designs.split(","):
        circuit = timed("netlist_build_s", pipeline.build_circuit, name, models.tech)
        design = timed("compile_s", compile_design, circuit, models)
        key = timed("register_s", registry.register, circuit.name, circuit, models)
        rpk = pack_dir / f"{circuit.name}.rpk"
        timed("pack_write_s", pack_compiled_design, design, rpk, design_key=key)
        if not timed("pack_attach_s", registry.attach_pack, circuit.name, rpk):
            print(f"error: pack {rpk} refused", file=sys.stderr)
            return 1

    server = STAServer(registry, ServeConfig(max_concurrency=MAX_CONCURRENCY))
    ready = Path(args.ready_file)

    # Never outlive the benchmark: stop when the parent process is gone.
    parent = os.getppid()

    def watch_parent() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        server.stop()

    threading.Thread(target=watch_parent, daemon=True).start()
    try:
        server.run(socket_path=args.socket,
                   ready=lambda: _write_atomic(ready, json.dumps(steps)))
    finally:
        ready.unlink(missing_ok=True)
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        _write_atomic(Path(args.rss_file), f"{peak_mib}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
