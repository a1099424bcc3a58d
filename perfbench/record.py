"""Record the reference answers every benchmark op is checked against.

    python3 perfbench/record.py

Runs each pool item once with the library in src/ and rewrites
perfbench/reference.json.  Run it only on a commit whose answers are
trusted; the benchmark then counts any later difference as a failed op.
"""

from __future__ import annotations

import hashlib
import json
import random

from env import require_library, run_record

require_library()

import workloads as wl  # noqa: E402

STATES_PER_SOURCE = 4


def record_certify() -> dict:
    return {"items": {item.id: wl.encode_certs(item.run(wl.NullTracer))
                      for item in wl.certify_items()}}


def record_gen() -> dict:
    rng = random.Random(2002)
    moduli = {"readme": 1 << 32, "pow": 1 << 32, "outfn": 1 << 16, "composite": 10_000}
    initial = {src: [rng.randrange(m) for _ in range(STATES_PER_SOURCE)]
               for src, m in moduli.items()}
    digests = {}
    for src, specs in wl.gen_specs(initial).items():
        digests[src] = []
        for spec in specs:
            state = wl.GeneratorState(spec)
            digests[src].append([
                hashlib.sha256(wl.chunk(wl.NullTracer, src, spec, state)).hexdigest()
                for _ in range(wl.STREAM_CHUNKS)])
    return {"initial_states": initial, "digests": digests}


def record_analyze() -> dict:
    return {"items": {item.id: item.encode(item.run(wl.NullTracer))
                      for item in wl.orbit_items()}}


def main() -> None:
    record = run_record()
    refs = {
        "source": ("answers of the library itself, recorded by perfbench/record.py"
                   f" at commit {record['commit']} (src sha256 {record['src_sha256']})"),
        "certify-mix": record_certify(),
        "gen-stream": record_gen(),
        "analyze-orbits": record_analyze(),
    }
    wl.REFERENCE_PATH.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {wl.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
