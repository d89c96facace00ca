"""Loader checks on mutated binary files.

Every truncation, every single-bit flip and one appended byte of a small
RDMP1, cell-probe KDS1 and KLM1 file either loads or raises a toolkit error,
never anything else; fields the header contradicts raise CorruptFileError.
"""

import struct

import numpy as np
import pytest

from knnmt.align import LinearMap, load_linear_map, save_linear_map
from knnmt.errors import CorruptFileError, KnnmtError
from knnmt.vecstore import (
    DumpHeader,
    build_datastore,
    load_datastore,
    make_records,
    merge_datastores,
    read_dump,
    save_datastore,
    write_dump,
)


def records(n=6, d=4):
    rng = np.random.default_rng(0)
    return make_records(rng.normal(size=(n, d)), rng.integers(10, size=n), np.arange(n), 0)


def write_rdmp(path):
    write_dump(path, DumpHeader(dim=4, vocab_size=10, lang="aa"), records())


def write_kds(path):
    save_datastore(build_datastore(records(), 10, "aa", index_kind="cell-probe",
                                   index_params={"n_cells": 2, "n_probe": 1}), path)


def write_klm(path):
    matrix = np.random.default_rng(1).normal(size=(4, 4))
    save_linear_map(LinearMap(matrix, "aa", "bb", ridge=0.5), path)


def mutations(raw: bytes):
    for n in range(len(raw)):
        yield raw[:n]
    for i in range(len(raw)):
        for bit in range(8):
            yield raw[:i] + bytes([raw[i] ^ (1 << bit)]) + raw[i + 1:]


FORMATS = {
    "RDMP1": (write_rdmp, read_dump),
    "KDS1": (write_kds, load_datastore),
    "KLM1": (write_klm, load_linear_map),
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # flipped float bits reach k-means
def test_mutation_loads_or_raises_toolkit_error(tmp_path, fmt):
    write, load = FORMATS[fmt]
    path = tmp_path / "file.bin"
    write(path)
    raw = path.read_bytes()
    load(path)
    escaped = []
    for variant in mutations(raw):
        path.write_bytes(variant)
        try:
            load(path)
        except KnnmtError:
            pass
        except Exception as exc:  # noqa: BLE001 - any other exception is the failure
            escaped.append(f"{type(exc).__name__}: {exc}")
    assert not escaped, f"{len(escaped)} variants escaped, e.g. {escaped[:3]}"


@pytest.mark.parametrize("fmt", FORMATS)
def test_trailing_byte_rejected(tmp_path, fmt):
    write, load = FORMATS[fmt]
    path = tmp_path / "file.bin"
    write(path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CorruptFileError):
        load(path)


# (format, byte offset, replacement): after the 6-byte magic, RDMP1 and KDS1
# hold u32 dim, u32 vocab_size; KDS1 then u8 kind, u32 n_cells, u32 n_probe.
# RDMP1's lang code bytes start at 18. KLM1 holds u32 dim, two u32-prefixed
# 2-byte codes (bytes at 14 and 20), f64 ridge at 22, then the matrix at 30.
CORRUPTIONS = {
    "rdmp-dim-0": ("RDMP1", 6, struct.pack("<I", 0)),
    "rdmp-dim-huge": ("RDMP1", 6, struct.pack("<I", 2**31 - 1)),
    "rdmp-lang-not-utf8": ("RDMP1", 18, b"\xff\xfe"),
    "kds-dim-huge": ("KDS1", 6, struct.pack("<I", 2**32 - 1)),
    "kds-no-cells": ("KDS1", 15, struct.pack("<I", 0)),
    "kds-no-probes": ("KDS1", 19, struct.pack("<I", 0)),
    "kds-more-cells-than-entries": ("KDS1", 15, struct.pack("<I", 7)),
    "klm-dim-0": ("KLM1", 6, struct.pack("<I", 0)),
    "klm-lang-not-utf8": ("KLM1", 14, b"\xc3\x28"),
    "klm-negative-ridge": ("KLM1", 22, struct.pack("<d", -1.0)),
    "klm-nan-matrix": ("KLM1", 30, struct.pack("<f", float("nan"))),
}


@pytest.mark.parametrize("case", CORRUPTIONS)
def test_contradicting_field_rejected(tmp_path, case):
    fmt, at, data = CORRUPTIONS[case]
    write, load = FORMATS[fmt]
    path = tmp_path / "file.bin"
    write(path)
    raw = path.read_bytes()
    path.write_bytes(raw[:at] + data + raw[at + len(data):])
    with pytest.raises(CorruptFileError):
        load(path)


def test_language_listed_twice_rejected(tmp_path):
    rows = records()
    stores = [build_datastore(rows[i::2], 10, lang) for i, lang in enumerate(("aa", "bb"))]
    path = tmp_path / "store.kds"
    save_datastore(merge_datastores(stores), path)
    path.write_bytes(path.read_bytes().replace(b"bb", b"aa"))
    with pytest.raises(CorruptFileError):
        load_datastore(path)
