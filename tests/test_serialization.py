import numpy as np
import pytest

from semiclass_lab.serialization import format_value, write_csv, write_pgm


def test_pgm_bytes_exact(tmp_path):
    p = tmp_path / "t.pgm"
    write_pgm(np.array([[0.0, 1.0], [1.0, 0.0]]), p)
    assert p.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 255, 255, 0])


def test_pgm_zero_grid(tmp_path):
    p = tmp_path / "z.pgm"
    write_pgm(np.zeros((3, 4)), p)
    raw = p.read_bytes()
    assert raw.startswith(b"P5\n4 3\n255\n")
    assert raw[len(b"P5\n4 3\n255\n"):] == bytes(12)


def test_pgm_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(np.zeros(5), tmp_path / "x.pgm")


def test_format_value():
    assert format_value(7) == "7"
    assert format_value(True) == "1"
    assert format_value(np.int64(-3)) == "-3"
    assert format_value(1 / 3) == "0.333333333333"
    assert format_value(1.0) == "1"
    assert format_value("abc") == "abc"


def test_write_csv(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, ["n", "value"], [[1, 0.5], [2, np.pi]])
    assert p.read_text() == "n,value\n1,0.5\n2,3.14159265359\n"
