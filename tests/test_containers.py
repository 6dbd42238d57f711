"""The four containers the codec reads: FTNS tensor files, FCMB streams,
planar sequence files and temporal side-info. Each reads through
`errors.ByteReader`, so each refuses short input as truncated and leftover
input as an invariant breach, and none copies what it reads."""

import tracemalloc

import numpy as np
import pytest

from fcmcodec import CodecId, EncoderConfig, TensorGroup, fcm_encode, parse_stream, read_tensor_file, write_tensor_file
from fcmcodec.errors import InvariantError, TruncatedError
from fcmcodec.planar import read_sequence, write_sequence
from fcmcodec.vcm import PixelSequence, TemporalSideInfo

from helpers import random_group, random_tensor


def ftns_bytes(path, rng):
    write_tensor_file(path, TensorGroup((random_tensor(rng, 2, 3, 4), random_tensor(rng, 1, 2, 2)), ("p3", "p4")))
    return path.read_bytes()


def fcmb_bytes(path, rng):
    return fcm_encode(random_group(rng, count=2, channels=4), EncoderConfig(codec=CodecId.BLOCK_DCT))


def planar_bytes(path, rng):
    # One frame: its records sit back to back, so a prefix ending on a record
    # boundary is a valid shorter sequence.
    write_sequence(path, PixelSequence((rng.integers(0, 1024, (3, 4)).astype(np.uint16),), 10))
    return path.read_bytes()


def side_info_bytes(path, rng):
    return TemporalSideInfo(4, 9).serialize()


def read_file(reader):
    def read(path, blob):
        path.write_bytes(blob)
        return reader(path)

    return read


# (valid bytes, parser, what one byte past the end raises)
CONTAINERS = {
    "ftns": (ftns_bytes, read_file(read_tensor_file), InvariantError),
    "fcmb": (fcmb_bytes, lambda path, blob: parse_stream(blob), InvariantError),
    "planar": (planar_bytes, read_file(read_sequence), TruncatedError),
    "side-info": (side_info_bytes, lambda path, blob: TemporalSideInfo.parse(blob), InvariantError),
}


@pytest.mark.parametrize("name", CONTAINERS)
def test_prefixes_truncated_and_extra_byte_refused(tmp_path, rng, name):
    make, parse, extra = CONTAINERS[name]
    path = tmp_path / "blob"
    blob = make(path, rng)
    parse(path, blob)
    for n in range(len(blob)):
        with pytest.raises(TruncatedError):
            parse(path, blob[:n])
    with pytest.raises(extra):
        parse(path, blob + b"\x00")


def traced_peak(read, path):
    tracemalloc.start()
    try:
        out = read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_tensor_file_read_without_a_copy(tmp_path, rng):
    """A 2 MiB FTNS file reads at a peak of about its size: each tensor views
    the file's bytes."""
    path = tmp_path / "big.ftns"
    tensor = random_tensor(rng, 8, 256, 256)
    write_tensor_file(path, TensorGroup((tensor,)))
    group, peak = traced_peak(read_tensor_file, path)
    assert peak <= 1.1 * path.stat().st_size
    np.testing.assert_array_equal(group.tensors[0].data, tensor.data)


def test_sequence_file_read_without_a_copy(tmp_path, rng):
    """A 2 MiB planar file of four frames reads at a peak of about its size."""
    path = tmp_path / "big.raw"
    frames = tuple(rng.integers(0, 1024, (512, 512)).astype(np.uint16) for _ in range(4))
    write_sequence(path, PixelSequence(frames, 10))
    seq, peak = traced_peak(read_sequence, path)
    assert peak <= 1.1 * path.stat().st_size
    for a, b in zip(frames, seq.frames):
        np.testing.assert_array_equal(a, b)


def test_writers_hand_their_arrays_to_the_file(tmp_path, rng):
    """Writing a 2 MiB FTNS group or planar sequence peaks at a small part of
    its size: each array goes to the file as it is, with no bytes copy."""
    group = TensorGroup((random_tensor(rng, 8, 256, 256),))
    seq = PixelSequence(tuple(rng.integers(0, 1024, (512, 512)).astype(np.uint16) for _ in range(4)), 10)
    for write, value in ((write_tensor_file, group), (write_sequence, seq)):
        path = tmp_path / "out"
        _, peak = traced_peak(lambda p: write(p, value), path)
        assert peak <= 0.05 * path.stat().st_size, write.__name__
