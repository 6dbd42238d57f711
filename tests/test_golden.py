"""Golden streams: pin the exact FCMB bytes and decoded tensors.

`fixtures/golden/` holds seeded FTNS inputs and `golden.json`, the sha256 of
the stream and of the decoded tensors for every codec x qp x prune x bit-depth
case. The test recomputes them, so any change to stream bytes or decoded
values fails here until the fixtures are regenerated on purpose with

    PYTHONPATH=src python tests/test_golden.py

which also rewraps `pyramid_raw_level6.fcmb`, a stream of an older encoder,
in the current stream version, keeping its unit payloads, and pins its
decoded digest to that of the manifest case it codes.
"""

import hashlib
import itertools
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from fcmcodec import CodecId, EncoderConfig, FeatureTensor, TensorGroup, fcm_decode, fcm_encode, parse_stream
from fcmcodec.bitstream import STREAM_VERSION
from fcmcodec.tensor import read_tensor_file, write_tensor_file

from helpers import assert_matches_staged_reference

GOLDEN = Path(__file__).resolve().parent.parent / "fixtures" / "golden"
MANIFEST = GOLDEN / "golden.json"
RAW_LEVEL6 = GOLDEN / "pyramid_raw_level6.json"

CODECS = {"raw": CodecId.RAW_LOSSLESS, "dct": CodecId.BLOCK_DCT}
QPS = (0, 4, 22, 40)
PRUNE_RATIOS = (0.0, 0.5)
BIT_DEPTHS = (10, 16)


def _smooth(rng, shape, sigma=1.5):
    return gaussian_filter(rng.standard_normal(shape), sigma=(0, sigma, sigma), mode="wrap")


def make_inputs() -> dict[str, TensorGroup]:
    """The seeded input groups, keyed by file name."""
    rng = np.random.default_rng(20260)
    # Post-ReLU-like: sparse channels with log-normal peaks, so many 8x8
    # blocks quantise to no coefficient at all.
    relu = np.maximum(_smooth(rng, (8, 12, 12)) - 0.5, 0.0)
    relu *= np.exp(rng.standard_normal((8, 1, 1)))
    return {
        "pyramid.ftns": TensorGroup(
            (
                FeatureTensor(_smooth(rng, (6, 16, 16)).astype(np.float32)),
                FeatureTensor(rng.normal(0.5, 1.0, (3, 8, 8)).astype(np.float32)),
            ),
            ("p3", "p4"),
        ),
        # 5 channels of 13x21 pack into a 26x63 frame: not a multiple of 8.
        "odd.ftns": TensorGroup((FeatureTensor(_smooth(rng, (5, 13, 21), sigma=1.0).astype(np.float32)),)),
        "relu.ftns": TensorGroup((FeatureTensor(relu.astype(np.float32)),)),
    }


def decoded_digest(group: TensorGroup) -> str:
    h = hashlib.sha256()
    for t in group.tensors:
        h.update(struct.pack("<III", *t.shape))
        h.update(t.data.astype("<f4", copy=False).tobytes())
    return h.hexdigest()


def golden_cases(name: str, group: TensorGroup, codecs: dict[str, CodecId] = CODECS) -> list[dict]:
    out = []
    for (codec, cid), qp, prune, depth in itertools.product(codecs.items(), QPS, PRUNE_RATIOS, BIT_DEPTHS):
        stream = fcm_encode(group, EncoderConfig(prune_ratio=prune, bit_depth=depth, codec=cid, qp=qp))
        out.append(
            {
                "input": name,
                "codec": codec,
                "qp": qp,
                "prune": prune,
                "bit_depth": depth,
                "stream_sha256": hashlib.sha256(stream).hexdigest(),
                "decoded_sha256": decoded_digest(fcm_decode(stream)),
            }
        )
    return out


def _manifest() -> dict:
    return json.loads(MANIFEST.read_text())


@pytest.mark.parametrize("name", sorted(make_inputs()))
def test_golden_streams(name):
    manifest = _manifest()
    path = GOLDEN / name
    assert hashlib.sha256(path.read_bytes()).hexdigest() == manifest["inputs"][name]
    expected = [c for c in manifest["cases"] if c["input"] == name]
    assert len(expected) == len(CODECS) * len(QPS) * len(PRUNE_RATIOS) * len(BIT_DEPTHS)
    group = read_tensor_file(path)
    actual = golden_cases(name, group)
    mismatched = [(e, a) for e, a in zip(expected, actual) if e != a]
    assert not mismatched, mismatched[:3]
    assert fcm_decode(fcm_encode(group, EncoderConfig())).labels == group.labels


@pytest.mark.parametrize("name", sorted(make_inputs()))
def test_one_refinement_matches_the_staged_reference(name):
    group = read_tensor_file(GOLDEN / name)
    even = all(t.height % 2 == 0 and t.width % 2 == 0 for t in group.tensors)
    transforms = ("identity", "meanpool2x") if even else ("identity",)
    for (_, cid), qp, prune, depth, transform in itertools.product(
        CODECS.items(), QPS, PRUNE_RATIOS, BIT_DEPTHS, transforms
    ):
        cfg = EncoderConfig(prune_ratio=prune, bit_depth=depth, codec=cid, qp=qp, transform=transform)
        assert_matches_staged_reference(group, cfg)


# Another OpenBLAS kernel than the host's, for the cross-kernel check below.
OTHER_BLAS_CORE = "Nehalem"


def test_dct_goldens_decode_alike_on_another_blas_kernel():
    """Both DCTs are BLAS products, and the kernel sets the order of their
    sums. Encoded and decoded with OpenBLAS's Nehalem kernel, in a fresh
    interpreter, the DCT cases still give their pinned stream and decoded
    hashes."""
    tests = Path(__file__).resolve().parent
    env = dict(
        os.environ,
        OPENBLAS_CORETYPE=OTHER_BLAS_CORE,
        OPENBLAS_VERBOSE="2",  # OpenBLAS then names its kernel on stderr
        PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]),
    )
    code = (
        "import json, test_golden as g\n"
        "cases = [c for n in g.make_inputs()"
        " for c in g.golden_cases(n, g.read_tensor_file(g.GOLDEN / n), {'dct': g.CodecId.BLOCK_DCT})]\n"
        "print(json.dumps(cases))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    if f"Core: {OTHER_BLAS_CORE}" not in done.stderr:
        pytest.skip(f"numpy's BLAS does not take OPENBLAS_CORETYPE={OTHER_BLAS_CORE}")
    expected = [c for c in _manifest()["cases"] if c["codec"] == "dct"]
    assert json.loads(done.stdout.splitlines()[-1]) == expected


def test_golden_inputs_are_the_seeded_groups():
    for name, group in make_inputs().items():
        stored = read_tensor_file(GOLDEN / name)
        assert stored.labels == group.labels
        for a, b in zip(stored.tensors, group.tensors):
            np.testing.assert_array_equal(a.data, b.data)


def _case_key(case: dict) -> tuple:
    return case["input"], case["codec"], case["qp"], case["prune"], case["bit_depth"]


def changed_hashes(old: dict, new: dict) -> dict[str, int]:
    """How many stream and decoded hashes of `new` differ from `old`'s cases.

    A case `old` does not hold counts as changed.
    """
    before = {_case_key(c): c for c in old.get("cases", ())}
    counts = {"stream_sha256": 0, "decoded_sha256": 0}
    for case in new["cases"]:
        prior = before.get(_case_key(case), {})
        for field in counts:
            counts[field] += prior.get(field) != case[field]
    return counts


def test_default_strategy_deflate_stream_still_decodes():
    """A RAW_LOSSLESS stream from the old level-6 default-strategy encoder.

    Its deflate body uses back-references the run-length encoder never
    writes, so it pins that the decoder reads any deflate stream. Each
    unit's payload is pinned too: a new stream version rewraps the units,
    never their deflate bodies.
    """
    meta = json.loads(RAW_LEVEL6.read_text())
    stream = (GOLDEN / meta["stream"]).read_bytes()
    assert hashlib.sha256(stream).hexdigest() == meta["stream_sha256"]
    assert payload_digests(stream) == meta["payload_sha256"]
    assert decoded_digest(fcm_decode(stream)) == meta["decoded_sha256"]
    case = _level6_case(meta)
    assert case["decoded_sha256"] == meta["decoded_sha256"]
    assert case["stream_sha256"] != meta["stream_sha256"]


def test_changed_hashes_counts_each_field():
    case = {"input": "a", "codec": "raw", "qp": 0, "prune": 0.0, "bit_depth": 10}
    old = {"cases": [{**case, "stream_sha256": "s", "decoded_sha256": "d"}]}
    new = {"cases": [{**case, "stream_sha256": "t", "decoded_sha256": "d"}]}
    assert changed_hashes(old, old) == {"stream_sha256": 0, "decoded_sha256": 0}
    assert changed_hashes(old, new) == {"stream_sha256": 1, "decoded_sha256": 0}
    assert changed_hashes({}, new) == {"stream_sha256": 1, "decoded_sha256": 1}


def payload_digests(stream: bytes) -> list[str]:
    return [hashlib.sha256(payload).hexdigest() for _, payload in parse_stream(stream)]


def _level6_case(meta: dict) -> dict:
    """The manifest case that codes the level-6 stream's input and settings."""
    key = (meta["input"], meta["codec"], meta["qp"], meta["prune"], meta["bit_depth"])
    (case,) = [c for c in _manifest()["cases"] if _case_key(c) == key]
    return case


def rewrap_raw_level6() -> None:
    """Rewrite the level-6 default-strategy stream at STREAM_VERSION. Its
    units have the layout of versions 5 to 7, so only the version byte
    changes; a version that changes the unit layout must rewrap them here.
    Every payload must keep its pinned digest. The pinned decoded digest is
    the manifest case's, which the stream must decode to."""
    meta = json.loads(RAW_LEVEL6.read_text())
    path = GOLDEN / meta["stream"]
    old = path.read_bytes()
    if hashlib.sha256(old).hexdigest() != meta["stream_sha256"]:
        raise SystemExit(f"{path} is not the stream {RAW_LEVEL6.name} pins")
    stream = old[:4] + bytes([STREAM_VERSION]) + old[5:]
    payloads = payload_digests(stream)
    if payloads != meta.get("payload_sha256", payloads):
        raise SystemExit(f"rewrapping {path} changed a unit payload")
    decoded = _level6_case(meta)["decoded_sha256"]
    if decoded_digest(fcm_decode(stream)) != decoded:
        raise SystemExit(f"{path} does not decode to its manifest case")
    path.write_bytes(stream)
    meta["deflate"] = (
        "zlib.compress level 6, default strategy (the RAW_LOSSLESS encoder up to commit 7ff83cd); each unit's "
        "payload is that encoder's zlib stream byte for byte, the RAW_LOSSLESS payload of a frame of one piece, "
        f"rewrapped in FCMB version {STREAM_VERSION} units"
    )
    meta["stream_sha256"] = hashlib.sha256(stream).hexdigest()
    meta["payload_sha256"] = payloads
    meta["decoded_sha256"] = decoded
    RAW_LEVEL6.write_text(json.dumps(meta, indent=1) + "\n")
    print(f"rewrapped {path.name} in FCMB version {STREAM_VERSION}, keeping its {len(payloads)} unit payloads")


def regenerate() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    old = _manifest() if MANIFEST.exists() else {}
    inputs, cases = {}, []
    for name, group in make_inputs().items():
        write_tensor_file(GOLDEN / name, group)
        inputs[name] = hashlib.sha256((GOLDEN / name).read_bytes()).hexdigest()
        cases += golden_cases(name, group)
    manifest = {"inputs": inputs, "cases": cases}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {len(inputs)} inputs and {len(cases)} cases to {GOLDEN}")
    changed = changed_hashes(old, manifest)
    changed_inputs = sum(old.get("inputs", {}).get(k) != v for k, v in inputs.items())
    print(
        f"changed against the old manifest: {changed['stream_sha256']} stream_sha256, "
        f"{changed['decoded_sha256']} decoded_sha256, {changed_inputs} input hashes"
    )
    rewrap_raw_level6()


if __name__ == "__main__":
    regenerate()
