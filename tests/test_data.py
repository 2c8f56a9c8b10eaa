"""Corpus loading, windowing conservation, scan bijections, PPM parsing."""

import numpy as np
import pytest

from megabyte.data import (
    Document,
    ImageGrid,
    load_corpus,
    make_windows,
    parse_ppm,
    patch_scan,
    patch_unscan,
    raster_scan,
    raster_unscan,
    write_ppm,
)


# -- corpus -------------------------------------------------------------------

def test_load_directory_lexicographic(tmp_path):
    (tmp_path / "b.txt").write_bytes(b"abc")
    (tmp_path / "a.txt").write_bytes(b"hello")
    docs = load_corpus(tmp_path)
    assert [d.id for d in docs] == ["a.txt", "b.txt"]
    assert docs[0].data == b"hello" and docs[1].data == b"abc"


def test_load_single_file(tmp_path):
    f = tmp_path / "x.bin"
    f.write_bytes(bytes(range(256)))
    docs = load_corpus(f)
    assert len(docs) == 1 and len(docs[0].data) == 256


def test_empty_document_is_error(tmp_path):
    f = tmp_path / "empty.txt"
    f.write_bytes(b"")
    with pytest.raises(ValueError, match="empty document"):
        load_corpus(f)


def test_missing_path_is_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_corpus(tmp_path / "nope")


def test_utf8_stays_raw(tmp_path):
    f = tmp_path / "u.txt"
    f.write_bytes("é".encode("utf-8"))  # 0xC3 0xA9
    docs = load_corpus(f)
    assert docs[0].data == b"\xc3\xa9"


# -- windows ----------------------------------------------------------------------

def test_windows_with_padded_tail():
    docs = [Document("d", bytes(range(10)))]
    ws = make_windows(docs, 4, 4)
    assert [w.offset for w in ws] == [0, 4, 8]
    assert np.array_equal(ws[2].bytes, [8, 9, 0, 0])
    assert np.array_equal(ws[2].mask, [True, True, False, False])


def test_windows_half_stride():
    docs = [Document("d", bytes(range(16)))]
    ws = make_windows(docs, 8, 4)
    assert [w.offset for w in ws] == [0, 4, 8]


def test_windows_never_span_documents():
    docs = [Document("a", b"12345"), Document("b", b"678")]
    ws = make_windows(docs, 4, 4)
    assert [(w.doc_id, w.offset) for w in ws] == [("a", 0), ("a", 4), ("b", 0)]


def test_windows_conserve_bytes():
    rng = np.random.default_rng(0)
    docs = [Document(str(i), bytes(rng.integers(0, 256, size=int(n), dtype=np.uint8)))
            for i, n in enumerate(rng.integers(1, 100, size=20))]
    ws = make_windows(docs, 16, 16)
    assert sum(w.real_length for w in ws) == sum(len(d.data) for d in docs)


def test_windows_validate_args():
    docs = [Document("d", b"abc")]
    with pytest.raises(ValueError):
        make_windows(docs, 0)
    with pytest.raises(ValueError):
        make_windows(docs, 4, 5)


# -- scans ---------------------------------------------------------------------------

def test_raster_scan_1x1():
    img = ImageGrid(np.array([[[9, 8, 7]]], dtype=np.uint8))
    assert raster_scan(img) == bytes([9, 8, 7])


def test_raster_scan_2x2_order():
    px = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
    out = raster_scan(ImageGrid(px))
    # (0,0), (0,1), (1,0), (1,1) — three channel bytes each
    assert out == bytes(range(12))


def test_raster_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(20):
        h, w = rng.integers(1, 9, size=2)
        img = ImageGrid(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))
        assert np.array_equal(raster_unscan(raster_scan(img), h, w).pixels, img.pixels)


def test_patch_scan_p1_equals_raster():
    rng = np.random.default_rng(2)
    img = ImageGrid(rng.integers(0, 256, size=(2, 2, 3), dtype=np.uint8))
    assert patch_scan(img, 3) == raster_scan(img)


def test_patch_scan_6x6_patch12_layout():
    # 6x6 image = 108 bytes; patch bytes 12 => 2x2-pixel patches, 9 patches.
    px = np.zeros((6, 6, 3), dtype=np.uint8)
    for y in range(6):
        for x in range(6):
            px[y, x] = (y * 6 + x, y, x)
    out = patch_scan(ImageGrid(px), 12)
    assert len(out) == 108
    patches = [out[i * 12:(i + 1) * 12] for i in range(9)]
    # Patch k covers pixel block (k//3*2):(k//3*2+2) x (k%3*2):(k%3*2+2),
    # raster order inside.
    for k in range(9):
        by, bx = divmod(k, 3)
        expect = b"".join(bytes(px[by * 2 + dy, bx * 2 + dx])
                          for dy in range(2) for dx in range(2))
        assert patches[k] == expect


def test_patch_scan_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = int(rng.integers(1, 4))
        h = p * int(rng.integers(1, 4))
        w = p * int(rng.integers(1, 4))
        img = ImageGrid(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))
        seq = patch_scan(img, 3 * p * p)
        assert np.array_equal(patch_unscan(seq, h, w, 3 * p * p).pixels, img.pixels)


def test_patch_scan_rejects_bad_sizes():
    img = ImageGrid(np.zeros((4, 4, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        patch_scan(img, 10)  # not 3 * square
    with pytest.raises(ValueError):
        patch_scan(img, 27)  # p=3 does not divide 4


# -- ppm ----------------------------------------------------------------------------------

def test_parse_ppm_minimal():
    img = parse_ppm(b"P6 1 1 255\n\x01\x02\x03")
    assert img.height == 1 and img.width == 1
    assert img.pixels[0, 0].tolist() == [1, 2, 3]


def test_parse_ppm_with_comments():
    data = b"P6\n# a comment\n2 1\n# another\n255\n" + bytes(6)
    img = parse_ppm(data)
    assert img.width == 2 and img.height == 1


def test_parse_ppm_bad_magic():
    with pytest.raises(ValueError, match="bad magic"):
        parse_ppm(b"P5 1 1 255\n\x00")


def test_parse_ppm_bad_maxval():
    with pytest.raises(ValueError, match="maxval"):
        parse_ppm(b"P6 1 1 65535\n" + bytes(6))


@pytest.mark.parametrize("header", [b"P62 2 255\n", b"P6 +2 1 255\n", b"P6 1_0 1 255\n"],
                         ids=["magic-without-whitespace", "signed-field", "underscored-field"])
def test_parse_ppm_rejects_headers_int_would_read(header):
    # int() reads "+2" and "1_0"; "P62" is not the P6 magic followed by
    # whitespace. Each would otherwise parse as an image.
    with pytest.raises(ValueError, match="magic|header field"):
        parse_ppm(header + bytes(30 * 3))


def test_parse_ppm_truncated():
    with pytest.raises(ValueError, match="truncated"):
        parse_ppm(b"P6 2 2 255\n" + bytes(11))


def test_write_parse_round_trip():
    rng = np.random.default_rng(4)
    img = ImageGrid(rng.integers(0, 256, size=(3, 5, 3), dtype=np.uint8))
    again = parse_ppm(write_ppm(img))
    assert np.array_equal(again.pixels, img.pixels)
