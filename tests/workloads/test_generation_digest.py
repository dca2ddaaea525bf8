"""Workload generation is pinned bit for bit.

Every trace column (dtype and bytes) and every page of the final memory
image of each generated program is hashed and compared against the
committed ``generation_digests.json``. Any change that alters what a
generator emits for a given (workload, seed, scale) changes a digest —
and such a change must also bump
:data:`repro.workloads.registry.GENERATOR_VERSION`, because on-disk
program caches are keyed by it.

Regenerate the digest file only together with that bump::

    PYTHONPATH=src python tests/workloads/test_generation_digest.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.memory.image import PAGE_BYTES, PAGE_WORDS
from repro.workloads.registry import ALL_WORKLOADS, WORKLOADS, generate

DIGEST_FILE = Path(__file__).with_name("generation_digests.json")
COLUMNS = ("pc", "op", "dest", "src1", "src2", "addr", "value", "taken")

#: (seed, scale) points: every registry workload small, the fig12 set at
#: the scale the campaign benchmark runs.
POINTS = [(name, 1, 0.05) for name in ALL_WORKLOADS] + [
    (name, 1, 0.3) for name in WORKLOADS
]


def _point_id(name: str, seed: int, scale: float) -> str:
    return f"{name}@seed{seed}-scale{scale:g}"


def program_digest(program) -> dict:
    """sha256 of each trace column and of the final image's pages."""
    trace = program.trace
    digest = {}
    for column in COLUMNS:
        array = getattr(trace, column)
        h = hashlib.sha256(array.dtype.str.encode())
        h.update(array.tobytes())
        digest[column] = h.hexdigest()
    image = program.final_image
    h = hashlib.sha256()
    for page_no in image.touched_pages():
        words = image.read_words(page_no * PAGE_BYTES, PAGE_WORDS)
        h.update(page_no.to_bytes(8, "little"))
        h.update(words.astype("<u4").tobytes())
    digest["image"] = h.hexdigest()
    return digest


def _compute_all() -> dict:
    return {
        _point_id(name, seed, scale): program_digest(
            generate(name, seed=seed, scale=scale)
        )
        for name, seed, scale in POINTS
    }


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(DIGEST_FILE.read_text("utf-8"))


def test_digest_file_covers_every_point(expected):
    assert sorted(expected) == sorted(_point_id(*p) for p in POINTS)


@pytest.mark.parametrize(
    "name,seed,scale", POINTS, ids=[_point_id(*p) for p in POINTS]
)
def test_generation_is_bit_identical(expected, name, seed, scale):
    got = program_digest(generate(name, seed=seed, scale=scale))
    want = expected[_point_id(name, seed, scale)]
    changed = sorted(k for k in want if got.get(k) != want[k])
    assert not changed, (
        f"{name} (seed {seed}, scale {scale:g}) generates differently in "
        f"{changed}; a generator change must bump GENERATOR_VERSION"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    DIGEST_FILE.write_text(
        json.dumps(_compute_all(), indent=1, sort_keys=True) + "\n", "utf-8"
    )
    print(f"wrote {DIGEST_FILE}")
