"""Config parsing: unit suffixes, grids, sections, and provenance digests."""

import math

import numpy as np
import pytest

from casigrat import (
    Config,
    ConfigError,
    parse_grid,
    parse_int_range,
    parse_quantity,
)
from casigrat.config import named
from casigrat.planar import NumericalError

SAMPLE = """\
# trench cell
[geometry]
period = 400nm
depth = 98nm
wall_angle = 94.6deg

[voltage]
applied = 300mV

[grid]
z = 100:600:25nm

[solver]
orders = 8
refine = true
"""


def test_parse_quantity_units():
    # the number and the prefix are read as one decimal literal
    assert parse_quantity("98nm") == 98e-9
    assert parse_quantity("400nm") == 4e-07
    assert parse_quantity("1.5e2nm") == 1.5e-7
    assert parse_quantity("151.7um") == 151.7e-6
    assert parse_quantity("0.3V") == 0.3
    assert parse_quantity("300mV") == 0.3
    assert parse_quantity("94.6deg") == 94.6
    assert parse_quantity("1783Hz") == 1783.0
    assert parse_quantity("2.5") == 2.5
    assert parse_quantity("1e-3") == 1e-3
    assert parse_quantity(f"{math.pi / 2:.15f}rad") == pytest.approx(
        90.0, rel=1e-12)


def test_parse_quantity_rejects_garbage():
    for bad in ("fast", "98 nanometers", "nm", "1..2nm", "", "1e1e1",
                "1e400nm"):
        with pytest.raises(ConfigError):
            parse_quantity(bad)
    with pytest.raises(ConfigError, match="ambiguous"):
        parse_quantity("3mHz")


def test_parse_quantity_exponent_past_the_int_digit_limit():
    # an exponent too long for int() still over- or underflows like float()
    huge = "1" * 5000
    with pytest.raises(ConfigError, match="non-finite"):
        parse_quantity(f"1e{huge}nm")
    assert parse_quantity(f"1e-{huge}nm") == 0.0
    assert parse_quantity(f"1e+{'0' * 5000}1nm") == 1e-8


def test_parse_grid_range_form():
    z = parse_grid("100:600:25nm")
    assert z.size == 21
    assert z[0] == pytest.approx(100e-9, rel=1e-12)
    assert z[-1] == pytest.approx(600e-9, rel=1e-12)
    assert np.allclose(np.diff(z), 25e-9)


def test_parse_grid_list_and_single():
    z = parse_grid("100nm, 250nm, 600nm")
    assert z.size == 3 and z[1] == pytest.approx(250e-9)
    assert parse_grid("150nm").size == 1


def test_parse_grid_rejects_bad_forms():
    with pytest.raises(ConfigError, match="divide"):
        parse_grid("100:610:25nm")
    with pytest.raises(ConfigError):
        parse_grid("600:100:25nm")
    with pytest.raises(ConfigError):
        parse_grid("100:600:0nm")
    with pytest.raises(ConfigError):
        parse_grid("600nm, 100nm")
    with pytest.raises(ConfigError):
        parse_grid("1:2:3:4nm")
    for bad in ("100:1e400:25nm", "100:200:1e400nm"):
        with pytest.raises(ConfigError, match="non-finite"):
            parse_grid(bad)
    with pytest.raises(ConfigError, match="start:stop:step"):
        parse_grid("100:abc:25nm")
    for huge in ("0.5:1e300:1e-300m", "1:1e12:1nm"):
        with pytest.raises(ConfigError, match="points, more than"):
            parse_grid(huge)


def test_parse_int_range():
    assert parse_int_range("4:14:2") == [4, 6, 8, 10, 12, 14]
    assert parse_int_range("3,5,9") == [3, 5, 9]
    assert parse_int_range("7") == [7]
    for bad in ("4:14:0", "14:4:2", "a:b:c", "1.5:3:1"):
        with pytest.raises(ConfigError):
            parse_int_range(bad)


def test_parse_int_range_refuses_oversized_range():
    # one value over the bound: refused before the list is built, and cheap
    # to build were it not
    assert len(parse_int_range("1:100000:1")) == 100_000
    with pytest.raises(ConfigError, match="100001 values, more than 100000"):
        parse_int_range("0:100000:1")


def test_config_typed_access():
    cfg = Config.from_text(SAMPLE)
    assert cfg.quantity("geometry", "period") == pytest.approx(400e-9)
    assert cfg.quantity("geometry", "wall_angle") == 94.6
    assert cfg.quantity("voltage", "applied") == pytest.approx(0.3)
    assert cfg.integer("solver", "orders") == 8
    assert cfg.boolean("solver", "refine") is True
    z = cfg.grid("grid", "z")
    assert z.size == 21


def test_config_defaults_and_required():
    cfg = Config.from_text(SAMPLE)
    assert cfg.quantity("geometry", "gap", 150e-9) == 150e-9
    assert cfg.string("materials", "plane", "gold_drude") == "gold_drude"
    assert cfg.grid("grid", "missing", "1:3:1nm").size == 3
    with pytest.raises(ConfigError, match="missing required"):
        cfg.quantity("geometry", "gap")
    with pytest.raises(ConfigError, match="missing required"):
        cfg.string("materials", "plane")


def test_config_bad_values_name_the_key():
    cfg = Config.from_text("[a]\nx = fast\nn = 1.5\nb = maybe\n"
                           "big = 100001\n")
    with pytest.raises(ConfigError, match=r"\[a\] x"):
        cfg.quantity("a", "x")
    with pytest.raises(ConfigError, match="not an integer"):
        cfg.integer("a", "n")
    with pytest.raises(ConfigError, match=r"\[a\] big: 100001 is more than"):
        cfg.integer("a", "big")
    with pytest.raises(ConfigError, match="not a boolean"):
        cfg.boolean("a", "b")


def test_accessor_messages_start_with_the_key():
    cfg = Config.from_text("[a]\nx = fast\nn = 1.5\nb = maybe\n"
                           "big = 100001\nz = 1:3:1furlong\n")
    for read, key, message in (
            (cfg.quantity, "x", "[a] x: cannot parse quantity 'fast'"),
            (cfg.integer, "n", "[a] n: not an integer: '1.5'"),
            (cfg.integer, "big", "[a] big: 100001 is more than 100000"),
            (cfg.boolean, "b", "[a] b: not a boolean: 'maybe'"),
            (cfg.grid, "z", "[a] z: grid '1:3:1furlong': unknown unit "
                            "suffix 'furlong'")):
        with pytest.raises(ConfigError) as exc:
            read("a", key)
        assert str(exc.value) == message
    # a text default goes through the same parser as a value
    assert cfg.string("a", "missing", " gold ") == "gold"
    assert cfg.boolean("a", "missing", "off") is False
    with pytest.raises(ConfigError, match=r"^\[a\] missing: not an integer"):
        cfg.integer("a", "missing", "many")


def test_named_prefixes_the_source():
    with pytest.raises(ConfigError) as exc:
        with named("[solver]"):
            raise ValueError("orders must lie in [0, 100], got 101")
    assert str(exc.value) == "[solver] orders must lie in [0, 100], got 101"
    # a KeyError's bare message, not its quoted repr
    with pytest.raises(ConfigError) as exc:
        with named("[materials] plane:"):
            raise KeyError("unknown material 'golld'")
    assert str(exc.value) == "[materials] plane: unknown material 'golld'"
    with named("--z:"):
        value = parse_grid("2m")
    assert value.tolist() == [2.0]


def test_named_passes_numerical_failures_through():
    failure = NumericalError("quadrature did not converge")
    with pytest.raises(NumericalError) as exc:
        with named("[solver]"):
            raise failure
    assert exc.value is failure


def test_config_rejects_duplicates_and_junk():
    with pytest.raises(ConfigError):
        Config.from_text("[a]\nx = 1\nx = 2\n")
    with pytest.raises(ConfigError):
        Config.from_text("just some words\n")


def test_digest_tracks_content_not_formatting():
    cfg = Config.from_text(SAMPLE)
    shuffled = Config.from_text(
        "[solver]\nrefine = true\norders = 8\n\n"
        "[grid]\nz = 100:600:25nm\n"
        "[voltage]\napplied = 300mV\n"
        "[geometry]\nwall_angle = 94.6deg\ndepth = 98nm\nperiod = 400nm\n")
    assert cfg.digest() == shuffled.digest()
    changed = Config.from_text(SAMPLE.replace("98nm", "99nm"))
    assert cfg.digest() != changed.digest()


def test_inline_comments_are_stripped():
    cfg = Config.from_text("[a]\ndepth = 98nm  # etched\n")
    assert cfg.quantity("a", "depth") == pytest.approx(98e-9)


def test_from_file_round_trip(tmp_path):
    path = tmp_path / "cell.cfg"
    path.write_text(SAMPLE)
    cfg = Config.from_file(path)
    assert cfg.integer("solver", "orders") == 8
