import numpy as np
import pytest

from semiclass_lab.serialization import (KIND_OPERATOR, KIND_STATE, format_value,
                                         read_state, write_csv, write_pgm,
                                         write_state)


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


def test_state_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    psi = rng.normal(size=16) + 1j * rng.normal(size=16)
    p = tmp_path / "s.bin"
    write_state(p, psi)
    back, kind = read_state(p)
    assert kind == KIND_STATE
    assert np.array_equal(back, psi)


def test_operator_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    U = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    p = tmp_path / "o.bin"
    write_state(p, U)
    back, kind = read_state(p)
    assert kind == KIND_OPERATOR
    assert np.array_equal(back, U)


def test_container_shape_validation(tmp_path):
    """Only a 1-D array (a state) or a square 2-D one (an operator) has a kind."""
    for i, array in enumerate((np.zeros(()), np.zeros((2, 3)), np.zeros((2, 2, 2)))):
        with pytest.raises(ValueError):
            write_state(tmp_path / f"{i}.bin", array)


def test_read_state_bad_magic(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(ValueError):
        read_state(p)


@pytest.mark.parametrize("kind, array", [(KIND_STATE, np.ones(16)),
                                         (KIND_OPERATOR, np.ones((4, 4)))])
def test_read_state_rejects_wrong_payload_length(tmp_path, kind, array):
    """A payload cut short or overlong, or a file cut inside the 9-byte
    header after its magic, is a ValueError."""
    p = tmp_path / "t.bin"
    write_state(p, array)
    raw = p.read_bytes()
    assert raw[4:5] == kind
    for bad in (raw[:-32], raw + bytes(16), b"SCLB", b"SCLBS", b"SCLBS\x01\x00",
                raw[:8]):
        p.write_bytes(bad)
        with pytest.raises(ValueError, match="payload|header"):
            read_state(p)
