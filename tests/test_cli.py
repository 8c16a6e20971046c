"""End-to-end checks of the command line front end."""

import contextlib
import csv
import functools
import hashlib
import io
import json
import re
import time
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from conftest import fresh_run
from stabscope.algebraic import ThetaParams
from stabscope.exceptional import _int_char
from stabscope import lepotier
from stabscope.cli import _VERBS, run
from stabscope.geometric import RatComplex

TRANSPORT_SLOTS = "1:0:-1,-21/29:-20/29:1,119/169:-120/169:1"


def _ok(capsys, argv):
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


def _json(capsys, argv):
    return json.loads(_ok(capsys, argv))


def test_exc_char_tangent(capsys):
    assert _json(capsys, ["exc", "char", "3/2"]) == {"char": ["2", "3", "3/2"]}


def test_exc_curve_points(capsys):
    out = _json(capsys, ["exc", "eplus", "1/2"])
    assert out == {"label": "1/2", "point": {"x": "1/2", "y": "-1/2"}}
    left = _json(capsys, ["exc", "el", "0"])
    assert left["point"]["x"] == {"a": "-3/2", "b": "1/2", "d": 5}


def test_classify_point_example(capsys):
    out = _json(capsys, ["classify-point", "--x", "1/2", "--y", "0",
                         "--depth", "4"])
    assert out == {"class": "GeoLP"}


def test_wall_example(capsys):
    out = _json(capsys, ["wall", "--v", "0,0,1", "--w", "1,0,0"])
    assert out["line"] == "s=0"
    out = _json(capsys, ["wall", "--v", "1,0,0", "--w", "1,1,1/2"])
    assert out["line"] == "q=1/2*s"


def test_charge_eval(capsys):
    out = _json(capsys, ["charge", "eval", "--s", "1/2", "--q", "0",
                         "--ch0", "1", "--ch1", "1", "--ch2", "1/2"])
    assert out == {"im": "1/2", "re": "-1/2"}


def test_dlp_verb(capsys):
    assert _json(capsys, ["dlp", "--ch0", "2", "--ch1", "2", "--ch2", "1"]) \
        == {"result": "YesExceptional"}
    assert _json(capsys, ["dlp", "--ch0", "2", "--ch1", "1", "--ch2", "1"]) \
        == {"result": "No"}


def test_unknown_verb_exits_2(capsys):
    assert run(["frobnicate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert "error" in json.loads(lines[0])


def test_malformed_rational_exits_2(capsys):
    assert run(["classify-point", "--x", "one half", "--y", "0"]) == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip())


def test_bad_triple_exits_2(capsys):
    assert run(["mutate", "left", "--triple", "0,1,3"]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert "triple" in err["error"]


def test_a_deep_label_in_no_pattern_is_refused_as_no_triple(capsys):
    # the candidate at 1/2^12000 would rank above MAX_RANK_BITS, but its
    # neighbours 0 and 1 are not the input's, so it is never built
    argv = ["mutate", "left", "--triple", f"0,1/{2 ** 12000},1"]
    assert _one_json_error(capsys, argv) == {"error": "labels do not form a standard triple pattern"}


# the one grid point (-7/10, -16/75), whose segment from E = O meets a gap
# still open at depth 0
_OPEN_AT_0 = ["stab-region", "--label", "0", "--grid=-7/10,-7/10,-16/75,-16/75,2"]


def test_strict_unknown_exits_3(capsys):
    argv = _OPEN_AT_0 + ["--depth", "0"]
    assert run(argv) == 0
    assert capsys.readouterr().out == "x,y,result\n-7/10,-16/75,Unknown\n"
    assert run(argv + ["--strict"]) == 3
    assert capsys.readouterr().out.endswith(",Unknown\n")
    # a rational point takes no budget, so it is never Unknown
    argv = ["classify-point", "--x", "1/2", "--y=-3/8", "--depth", "0", "--strict"]
    assert _json(capsys, argv) == {"class": "OnExclusion"}


def test_env_depth_default(capsys, monkeypatch):
    monkeypatch.setenv("STABSCOPE_DEPTH", "0")
    assert _ok(capsys, _OPEN_AT_0).splitlines()[1:] == ["-7/10,-16/75,Unknown"]
    assert _ok(capsys, _OPEN_AT_0 + ["--depth", "4"]).splitlines()[1:] == \
        ["-7/10,-16/75,StableUnshifted"]


def test_triple_and_mutate(capsys):
    t = _json(capsys, ["triple", "make", "--pattern", "adj", "--base", "1"])
    assert t["labels"] == ["0", "1", "2"]
    assert t["chars"][1] == ["1", "1", "1/2"]
    m = _json(capsys, ["mutate", "left", "--triple", "0,1,2"])
    assert m["labels"] == ["0", "1/2", "1"]
    back = _json(capsys, ["mutate", "right", "--triple", "0,1/2,1"])
    assert back["labels"] == t["labels"]


def test_curve_json_payload(capsys):
    out = _json(capsys, ["curve", "emit", "--from=-1/2", "--to", "3/2",
                         "--depth", "0"])
    assert out["depth"] == 0
    assert {e["x"] for e in out["exclusions"]} == {"0", "1"}
    for seg in out["segments"]:
        assert seg["side"] in ("left", "right")


def test_curve_svg_embeds_csv(capsys):
    base = ["curve", "emit", "--from=-1", "--to", "1", "--depth", "2"]
    csv_text = _ok(capsys, base + ["--format", "csv"])
    svg_text = _ok(capsys, base + ["--format", "svg"])
    match = re.search(r"<desc>(.*?)</desc>", svg_text, re.S)
    assert match is not None
    assert match.group(1).replace("&#10;", "\n") == csv_text
    assert csv_text.splitlines()[0] == "x1,y1,x2,y2,kind,label"


def test_byte_identical_reruns(capsys):
    fixtures = [
        ["curve", "emit", "--from=-2", "--to", "2", "--depth", "3",
         "--format", "svg"],
        ["walls", "--v", "0,0,1", "--pool-depth", "1",
         "--window=-2,2,-1,1", "--format", "csv"],
        ["transport", "--triple", "0,1,2",
         f"--slots={TRANSPORT_SLOTS}"],
        ["classify-cell", "--triple", "0,1,2",
         f"--slots={TRANSPORT_SLOTS}"],
    ]
    for argv in fixtures:
        first = _ok(capsys, argv)
        second = _ok(capsys, argv)
        assert first == second


def test_transport_cli_roundtrip(capsys):
    fwd = _json(capsys, ["transport", "--triple", "0,1,2",
                         f"--slots={TRANSPORT_SLOTS}"])
    assert fwd["exact"] is True
    assert fwd["triple"]["labels"] == ["0", "1/2", "1"]
    carried = fwd["params"]["slots_arg"]
    back = _json(capsys, ["transport", "--inverse", "--triple", "0,1/2,1",
                          f"--slots={carried}"])
    assert back["triple"]["labels"] == ["0", "1", "2"]
    assert back["params"]["slots_arg"] == TRANSPORT_SLOTS


def test_classify_cell_payload(capsys):
    out = _json(capsys, ["classify-cell", "--triple", "0,1,2",
                         f"--slots={TRANSPORT_SLOTS}"])
    assert out["label"] == "PlusLeg"
    assert out["exact"] is True
    assert out["kernel"] is not None


def test_stab_region_golden(capsys):
    out = _ok(capsys, ["stab-region", "--label", "0",
                       "--grid=-1/2,1/2,-1/8,1/8,3", "--depth", "6"])
    assert out == (
        "x,y,result\n"
        "-1/2,-1/8,StableUnshifted\n"
        "1/2,-1/8,StableShifted\n"
        "-1/2,0,StableUnshifted\n"
        "1/2,0,StableShifted\n"
        "-1/2,1/8,StableUnshifted\n"
        "0,1/8,StableShifted\n"
        "1/2,1/8,StableShifted\n"
    )


def test_walls_json_payload(capsys):
    out = _json(capsys, ["walls", "--v", "0,0,1", "--pool-depth", "0",
                         "--window=-2,2,-1,1"])
    assert out["v"] == ["0", "0", "1"]
    lines = [w["line"] for w in out["walls"]]
    assert lines == ["s=-2", "s=-1", "s=0", "s=1", "s=2"]
    for w in out["walls"]:
        assert w["clip"]["start"]["x"] == w["clip"]["end"]["x"]


# SHA-256 of stdout for the acceptance CLI matrix (check 12) plus the
# default-depth dlp, as printed before the contact points became closed
# forms, and two deeper curve listings, as printed before the tents were
# built from integer forms; any change to these bytes is a change of the
# CLI contract.
GOLDEN_DIGESTS = [
    (["exc", "char", "3/2"],
     "b9d8a677c831025474d126fe3cdfcbe4c5132d76db99e3cd163bd8818e9e8848"),
    (["curve", "emit", "--from=-2", "--to", "2", "--depth", "3",
      "--format", "svg"],
     "2d83c56dad96c092319b936665f17225d835d328e1a5399d882b21c4453ebd4c"),
    (["classify-point", "--x", "1/2", "--y", "0", "--depth", "4"],
     "05743d6f96091132205a6dc2bff1187a40c7d30112f720ae3795283d0837e5a1"),
    (["dlp", "--ch0", "3", "--ch1", "1", "--ch2=-2", "--depth", "4"],
     "2fd6567a0b1ad14614135e20eb02d05cc4e9fbf942cf0c9a17b01e85b08e1b3f"),
    (["charge", "eval", "--s", "1/2", "--q", "0",
      "--ch0", "1", "--ch1", "1", "--ch2", "1/2"],
     "4db6e4071a88d7987febba5452e8ea147d55b28f8e7575e7b9289e15b3143782"),
    (["stab-region", "--label", "0", "--grid=-1/2,1/2,-1/8,1/8,3",
      "--depth", "6"],
     "521ba79d0fa7ba1bc06cf9968559836fdedd654488deed8013af87c8007d680d"),
    (["triple", "make", "--pattern", "adj", "--base", "1"],
     "70c47497ad93ac0e85ac4f408198e481283078e020c7333c66538d3fa11c272a"),
    (["mutate", "left", "--triple", "0,1,2"],
     "68353eda7ded34bb668edb4c48ac5d82bd6e54e5e7d6d44b8f92a9b198b1831d"),
    (["classify-cell", "--triple", "0,1,2", f"--slots={TRANSPORT_SLOTS}",
      "--depth", "6"],
     "05cf57a00a05384faf16c05a89ed5ea4ddf13a6b33fc2eed239c786966ca52f8"),
    (["transport", "--triple", "0,1,2", f"--slots={TRANSPORT_SLOTS}",
      "--depth", "6"],
     "a81f2311ac35ddeed16193d2b1182a699b13ba569b3739ebf326748f5092f96a"),
    (["wall", "--v", "0,0,1", "--w", "1,0,0"],
     "c8cd923b3a43b209c51e6dc7134258caf70c9b6abf71690d30d7ebc73ffbdf4f"),
    (["walls", "--v", "0,0,1", "--pool-depth", "1", "--window=-2,2,-1,1",
      "--format", "csv"],
     "0eb0a5007d6af49efc0fb46475ef30618afe4d738df16204b674e81ac38deab7"),
    (["dlp", "--ch0", "3", "--ch1", "1", "--ch2=-2"],
     "2fd6567a0b1ad14614135e20eb02d05cc4e9fbf942cf0c9a17b01e85b08e1b3f"),
    # the deepest curve listing of the benchmark's CLI matrix, and one that
    # prints surd contact points in JSON
    (["curve", "emit", "--from=-2", "--to", "2", "--depth", "6", "--format", "csv"],
     "ddd694eb111239030a980c66783e71de7785de7b05adbd4b0a4a3aa5658c36d5"),
    (["curve", "emit", "--from=-1/2", "--to", "3/2", "--depth", "4"],
     "2734757f94fdc8cb3247e7ee5a8d77bef432b6426b49b93e471a024ee54e32ce"),
]

# SHA-256 of stdout: classify-cell once for each reason its report can give,
# and classify-point and dlp at the top of the exclusion of the label 3/8, of
# character (29, 12, -12), and 2^-60 below and above it, as printed before
# chart cells and rational points were decided on integer vectors; and
# classify-cell at depth 0 on a kernel point in the curve strip, which the
# chart decides without a region test: GeoCell, as every depth from 1 up
# printed it while the region test was made.  Each entry is named.
_EXC_Y = Fraction(-12, 29)
CELL_AND_POINT_DIGESTS = [
    ("cell geo", ["classify-cell", "--triple", "0,1/2,1",
                  "--slots=1:3/4:0,-2:0:0,2/5:0:1", "--depth", "6"],
     "9866e1baccd546ed84b5e55423ee1549f8de2e042767792057f1ae40ee933a41"),
    ("cell outside pentagon", ["classify-cell", "--triple", "0,1/2,1",
                               "--slots=4:3:0,0:1/5:2,-3:4:2", "--depth", "6"],
     "93256d9cb8b92d42b25f58fa1811bc7ebe66b805a794175c25cc381f9c82f5ea"),
    ("cell rank zero", ["classify-cell", "--triple", "0,1,2",
                        "--slots=-4:3:-2,-15/41:200/123:0,-4:3:0", "--depth", "6"],
     "4b8cac5b704185790c4cddf2da30be891580824f072e30738d8cd9b0b546561d"),
    ("cell orientation", ["classify-cell", "--triple", "0,1,2",
                          "--slots=24/5:18/5:2,9/5:0:3,-6:8:4", "--depth", "6"],
     "24883a9b3a8ab07cdf27c82d1775b06020815fc63be231ef9889f125b4ac80d8"),
    ("cell geo in the strip", ["classify-cell", "--triple", "1/2,3/4,1",
                               "--slots=2/5:5/8:-2,1:15/16:0,6/5:19/16:0", "--depth", "0"],
     "8ac7f08bd22f8144d8cf329234ccd6e6aa8a50d0d6b22b88014925bb375bdfdd"),
    ("point exclusion top", ["classify-point", "--x", "12/29", f"--y={_EXC_Y}", "--depth", "4"],
     "7c3c0a39ed6c4169a3f7285b142a6a611cbd11393b201c523256e9dcc192a33e"),
    ("point below exclusion top", ["classify-point", "--x", "12/29",
                                   f"--y={_EXC_Y - Fraction(1, 2 ** 60)}", "--depth", "4"],
     "7c3c0a39ed6c4169a3f7285b142a6a611cbd11393b201c523256e9dcc192a33e"),
    ("point above exclusion top", ["classify-point", "--x", "12/29",
                                   f"--y={_EXC_Y + Fraction(1, 2 ** 60)}", "--depth", "4"],
     "05743d6f96091132205a6dc2bff1187a40c7d30112f720ae3795283d0837e5a1"),
    ("dlp exclusion top", ["dlp", "--ch0", "29", "--ch1", "12", "--ch2=-12", "--depth", "4"],
     "58c7c81d54beb4dcb1d597f9037c0b1f62fb7c26191ab56bcd6c5924aeba6af0"),
    ("dlp below exclusion top", ["dlp", "--ch0", "29", "--ch1", "12",
                                 f"--ch2={-12 - Fraction(29, 2 ** 60)}", "--depth", "4"],
     "8f4b15b61b89461aeb1c32740f43b69bd930d60fe0a3371aebac3d8247ac4000"),
]

# an entry of GOLDEN_DIGESTS is named by its first two words; the two deep
# curve listings, which share theirs with the matrix's, by all of them
_GOLDEN_IDS = ([" ".join(a[:2]) for a, _ in GOLDEN_DIGESTS[:-2]]
               + [" ".join(a) for a, _ in GOLDEN_DIGESTS[-2:]]
               + [name for name, _, _ in CELL_AND_POINT_DIGESTS])


@pytest.mark.parametrize("argv,digest", GOLDEN_DIGESTS + [
    (argv, digest) for _, argv, digest in CELL_AND_POINT_DIGESTS], ids=_GOLDEN_IDS)
def test_golden_digests(capsys, monkeypatch, argv, digest):
    monkeypatch.delenv("STABSCOPE_DEPTH", raising=False)
    out = _ok(capsys, argv)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of [exit code, stdout, stderr] as JSON, at 80 columns, for the
# texts argparse writes: top-level and per-verb help, each bare verb, an
# unknown verb, an unknown option, an option without its value, argv that
# starts with an option and a --depth that is no integer.  Help exits
# through SystemExit, whose code is taken as the exit code.  argparse words
# these texts differently across Python versions; these are Python 3.11's.
USAGE_DIGESTS = [
    ([],
     "2c43a69f334a6a5a2ec6c6bdee48191052c4e963237578a00c2a95064544bcda"),
    (["--help"],
     "f11b7c4cf7084a0ce908bf29f01c59361e6394b898b5bb8e66923c233d69ab2a"),
    (["exc", "--help"],
     "185bed9fedc3fc788907da477b5ea9a0be12f2a5cc4a6ba5382865c6f4127015"),
    (["curve", "--help"],
     "bb9d274818d2e4e498907be7990a5a85d9a4b838a4b4f668888bbedfbba2b037"),
    (["classify-point", "--help"],
     "b788d9bca108f28d577a18967ceb24bec2b71fefbd05c249f15c38fefaeb8de2"),
    (["dlp", "--help"],
     "88520afb99be867ae5d6a63174eb0090a0f8ce3e9ef2b09327d1de15657ffa40"),
    (["charge", "--help"],
     "5a288070f99ef73d71c70b1be0384a93d989ccad542d257dfa8e8c6067a98458"),
    (["stab-region", "--help"],
     "44c13edd1537fd8f02c9bba10bbbc76523dca7194e3083fcb4e0eee83f06fd5a"),
    (["triple", "--help"],
     "9002a0a846217d02860559c7a0a88b16a9cba48252abcd8600ea83aa2c87bba0"),
    (["mutate", "--help"],
     "24ecbacb8a77aa87af70611bc165826400cff474833d166bff49f56e854e0b72"),
    (["classify-cell", "--help"],
     "1aa4aa548d49261a9fa06849542d18f07bb09585afaa3a8cba06d9f7a86b5ae1"),
    (["transport", "--help"],
     "0cd3aa7f6c5dac4a6a78621e2f53170b6d8eea755e5331c0a0ad56043301e989"),
    (["wall", "--help"],
     "98d3c142f6afcbe9edc54e4d6d4cdac375f8dcb7ff7bd68e1deb2e8c90131c5d"),
    (["walls", "--help"],
     "cc273e4dbc84d94cab9e36923f71e96c18830d565bb45188a2ce0edd904ddf6e"),
    (["exc"],
     "726f42bea33b55a546c7928805528363a9d3baa2f46cf1eb720632a493b5f957"),
    (["curve"],
     "8806d86b02717f79599ce9a1a846239c9e5fc43004c9ac19fb026d7f6a119107"),
    (["classify-point"],
     "ca4a99697d714535f9f206280a33af98274c640161792ed7ad83d0ec5228e2bd"),
    (["dlp"],
     "ef2d341bea3a37f67dc8bfa350d9653881c1ee7a8ac2f2c3797cb6c12d0d9cc2"),
    (["charge"],
     "1b105c283cfa33b94db95f8de19e9188439ec7cbc15afdfbd941bcf55dea7b59"),
    (["stab-region"],
     "a07f515de53e30cc6c4c7d95eb3b50e9b2d42035eacb4f7a7978a02ce015b68e"),
    (["triple"],
     "33e35d80a81a2a07c695e199f869820d44b3d10557f21075760d42b1d6ea80ea"),
    (["mutate"],
     "5796a84c2aafbf3960d9f3f855466022b39f0462e05b716858715c28fafe8470"),
    (["classify-cell"],
     "c6bb152abfc7af50b7d3bdafb64f18847c15f94a014e3cde4c4b6620b017111b"),
    (["transport"],
     "c6bb152abfc7af50b7d3bdafb64f18847c15f94a014e3cde4c4b6620b017111b"),
    (["wall"],
     "fddc1cb7abf1226c9216af9431678854d009fba70d0b88716d46de38ac66e9c5"),
    (["walls"],
     "fa445dcbd1d11b66b35dcb602099ca74894e45a295f950dc5fae0d3d1ad45f6a"),
    (["frobnicate"],
     "a74cb5e729fc2375caba20b8d5d6f029ef25f6325dab9629f233d42085d660cd"),
    (["exc", "char", "0", "--bogus"],
     "0b3b6644dfe34d2f122093e4c7ee93c7acc5f032c3843198d20c29bf684c68dc"),
    (["dlp", "--ch0"],
     "136793355abedc2abb8173cefa58bfee45de4baae6adb6c5e94bc81ff088a3f7"),
    (["--", "exc", "char", "0"],
     "1684b035cb65d27be1da16e9e741bc47d707afd0cd29f9e8cb50aeb193bab557"),
    (["--x", "1"],
     "68612915b82ae98f202408da314902cf1dcd79cde06331068889281592558a1d"),
    (["classify-point", "--x", "0", "--y", "0", "--depth", "abc"],
     "a81b2c6dbcf6e1583407adf2a490613488fb13098361844db17fd5b287e69aab"),
]


@pytest.mark.parametrize("argv,digest", USAGE_DIGESTS,
                         ids=[" ".join(a) or "(empty)" for a, _ in USAGE_DIGESTS])
def test_help_and_usage_errors_keep_their_bytes(capsys, monkeypatch, argv, digest):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = run(argv)
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    got = json.dumps([code, captured.out, captured.err])
    assert hashlib.sha256(got.encode()).hexdigest() == digest, got


# SHA-256 of [exit code, stdout, stderr] as JSON for triple make in every
# pattern at a depth-2 base and at an integer base, which is tagged
# adjacent, every mutation of a right- and a left-extended triple, and the
# error for labels in no standard pattern, as printed while triples were
# recognised by trying each pattern in turn.
TRIPLE_AND_MUTATE_DIGESTS = [
    (["triple", "make", "--pattern", "adj", "--base", "3/4"],
     "85d1079c7e20a7a6d3df875d2f9c9b9e16e812b6aa6a47027c68ad1c9307327e"),
    (["triple", "make", "--pattern", "right", "--base", "3/4"],
     "02644e0b1b17e275eab53a1034205091b0e51245721c3c1f53de6646d0a602bd"),
    (["triple", "make", "--pattern", "left", "--base", "3/4"],
     "52c09f318879fa4d9c7fd9acd398582a475a01b56a843cb42fb20c86fc90877b"),
    (["triple", "make", "--pattern", "right", "--base", "3"],
     "0b8ac5e7a754cfc16de9cfaf5502d61b968dd3b52996ca6769e90a31009e00e7"),
    (["mutate", "left", "--triple=3/4,1,7/2", "--slot", "1"],
     "31964c51088fbb0f85a55c0c86966241f00414e7e73d376d362afa81614235a4"),
    (["mutate", "left", "--triple=3/4,1,7/2", "--slot", "2"],
     "2f6c9c55489714a013fb4fbe950ba096bf9b568fde3732e54351c6736595809f"),
    (["mutate", "right", "--triple=3/4,1,7/2", "--slot", "1"],
     "e92652aff917a89b5d0ad1641ea8bcbb22586d59865b2b9f44a39d67bb70a063"),
    (["mutate", "right", "--triple=3/4,1,7/2", "--slot", "2"],
     "bd710bdef7b44fa2821f9854377f98a6e257cb8a74f13c91bd820320a5ebc6bd"),
    (["mutate", "left", "--triple=-2,1/2,3/4", "--slot", "1"],
     "793f3dddf5ecf03e96340c45eeb4a59138609ea78f61b22519dd409e9b8bbcfb"),
    (["mutate", "left", "--triple=-2,1/2,3/4", "--slot", "2"],
     "2537cfaf7890ddd4d7c8c9bc905f9bf57af641935729ba5e8eb675f53458a459"),
    (["mutate", "right", "--triple=-2,1/2,3/4", "--slot", "1"],
     "58bebe3707dc8df0bde9cc8c48abe16b4224416dbfdc6d1ef732ff340486671a"),
    (["mutate", "right", "--triple=-2,1/2,3/4", "--slot", "2"],
     "0bf41f8aacb0f72addddc6f2df1cd8e64d0b86f8f1d6a31f74aac3fac83c04c0"),
    (["mutate", "left", "--triple", "0,1,3"],
     "6411a9249b9f9dd930fcfc8c0871a6203abdcefc124c4e2012aebe1890c8ba7d"),
]


@pytest.mark.parametrize("argv,digest", TRIPLE_AND_MUTATE_DIGESTS,
                         ids=[" ".join(a) for a, _ in TRIPLE_AND_MUTATE_DIGESTS])
def test_triple_and_mutate_keep_their_bytes(capsys, argv, digest):
    code = run(argv)
    captured = capsys.readouterr()
    got = json.dumps([code, captured.out, captured.err])
    assert hashlib.sha256(got.encode()).hexdigest() == digest, got


def _one_json_error(capsys, argv) -> dict:
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


# one cheap, valid invocation of every verb
EVERY_VERB = [
    ["exc", "char", "0"],
    ["curve", "emit", "--from", "0", "--to", "1"],
    ["classify-point", "--x", "1/2", "--y", "0"],
    ["dlp", "--ch0", "1", "--ch1", "0", "--ch2", "0"],
    ["charge", "eval", "--s", "0", "--q", "0",
     "--ch0", "1", "--ch1", "0", "--ch2", "0"],
    ["stab-region", "--label", "0", "--grid=-1/2,1/2,-1/8,1/8,2"],
    ["triple", "make", "--pattern", "adj", "--base", "1"],
    ["mutate", "left", "--triple", "0,1,2"],
    ["classify-cell", "--triple", "0,1,2", f"--slots={TRANSPORT_SLOTS}"],
    ["transport", "--triple", "0,1,2", f"--slots={TRANSPORT_SLOTS}"],
    ["wall", "--v", "0,0,1", "--w", "1,0,0"],
    ["walls", "--v", "0,0,1", "--pool-depth", "0", "--window=-1,1,-1,1"],
]


@pytest.mark.parametrize("value", ["abc", "-1"])
@pytest.mark.parametrize("argv", EVERY_VERB, ids=[a[0] for a in EVERY_VERB])
def test_bad_env_depth_exits_2(capsys, monkeypatch, value, argv):
    monkeypatch.setenv("STABSCOPE_DEPTH", value)
    err = _one_json_error(capsys, argv)
    assert "STABSCOPE_DEPTH" in err["error"]


DEPTH_VERBS = [a for a in EVERY_VERB
               if a[0] in ("curve", "classify-point", "dlp", "stab-region",
                           "classify-cell", "transport")]


NEGATIVE_DEPTHS = [(a + ["--depth=-1"], "--depth") for a in DEPTH_VERBS] + [
    (["walls", "--v", "0,0,1", "--pool-depth=-3", "--window=-1,1,-1,1"],
     "--pool-depth")]


@pytest.mark.parametrize("argv,flag", NEGATIVE_DEPTHS,
                         ids=[a[0] for a, _ in NEGATIVE_DEPTHS])
def test_negative_depth_exits_2(capsys, argv, flag):
    err = _one_json_error(capsys, argv)
    assert flag in err["error"]


@pytest.mark.parametrize("argv", [
    ["curve", "emit", "--from", "0", "--to", "1", "--depth", "30"],
    ["walls", "--v", "0,0,1", "--pool-depth", "30", "--window=-1,1,-1,1"],
], ids=["curve", "walls"])
def test_label_enumeration_is_capped(capsys, argv):
    start = time.perf_counter()
    err = _one_json_error(capsys, argv)
    assert "labels" in err["error"]
    assert time.perf_counter() - start < 1.0


def test_stab_region_grid_is_capped(capsys):
    start = time.perf_counter()
    err = _one_json_error(capsys, ["stab-region", "--label", "0",
                                   "--grid=-1,1,-1,1,100000"])
    assert "4096 points" in err["error"]
    assert time.perf_counter() - start < 1.0


def test_exc_char_deep_label(capsys):
    out = _json(capsys, ["exc", "char", f"1/{2 ** 1200}"])
    rank, ch1, ch2 = (Fraction(t) for t in out["char"])
    assert rank > 0 and 0 < ch1 / rank < Fraction(1, 2)
    assert ch2 == ch1 * ch1 / (2 * rank) - (1 - 1 / rank ** 2) * rank / 2


@pytest.mark.parametrize("argv", [
    ["classify-point", "--x", "117/100", "--y", "103/100"],
    ["classify-cell", "--triple", "0,1,2", "--m", "1,1,1", "--phi", "0.1,0.5,1.3"],
], ids=["classify-point", "classify-cell"])
def test_huge_depth_above_the_strip_in_a_fresh_process(argv):
    done, seconds = fresh_run([*argv, "--depth", "100000"])
    assert seconds < 2.0
    assert done.returncode == 0 and done.stderr == b""
    assert json.loads(done.stdout)


def test_huge_depth_dlp_in_a_fresh_process():
    # the slope 1/3 is not exceptional, and the search for it stops at rank 3
    done, seconds = fresh_run(["dlp", "--ch0", "3", "--ch1", "1", "--ch2=-2",
                                "--depth", "100000"])
    assert seconds < 2.0
    assert done.returncode == 0 and done.stderr == b""
    assert json.loads(done.stdout) == {"result": "Yes"}


# the deepest slope searches the CLI can reach: x is 1/10^k past an
# integer n, so only a label of rank 10^k could have slope x, and the search
# walks about 2.4 k levels, past the CACHE_SIZE characters that stay cached.
# At discriminant (1/2)(1 - 1/10^(2k)) the point is where the top of that
# exclusion would be.  Every number is written out in fewer than 4300 digits.
def _deepest_argv(verb, n, k):
    r = 10 ** k
    x = n + Fraction(1, r)
    y = x * x / 2 - (1 - Fraction(1, r * r)) / 2
    if verb == "dlp":
        # the character (r, r x, r y) projects to (x, y)
        return ["dlp", "--ch0", str(r), "--ch1", str(r * x), f"--ch2={r * y}"]
    return ["classify-point", "--x", str(x), f"--y={y}"]


@pytest.mark.parametrize("verb,n,k,extra,want", [
    ("classify-point", 0, 2149, [], {"class": "GeoLP"}),
    ("classify-point", 0, 2149, ["--depth", "100000"], {"class": "GeoLP"}),
    ("classify-point", 5, 2000, [], {"class": "GeoLP"}),
    ("dlp", 0, 2000, [], {"result": "No"}),
    ("dlp", 5, 2000, [], {"result": "No"}),
], ids=["classify-point", "classify-point-depth", "classify-point-past-5", "dlp", "dlp-past-5"])
def test_deepest_slope_search_in_a_fresh_process(verb, n, k, extra, want):
    argv = _deepest_argv(verb, n, k) + extra
    assert max(len(digits) for a in argv for digits in re.findall(r"\d+", a)) < 4300
    done, seconds = fresh_run(argv)
    assert done.returncode == 0 and done.stderr == b""
    assert json.loads(done.stdout) == want
    assert seconds < 3.0


# the deepest strip point the CLI can reach: the apex slope c/r of the label
# 1/2^m, where the ranks of labels grow slowest, at the largest m whose rank
# prints in fewer than 4300 digits, and at discriminant 3/4 + (0..1)/r.  The
# point walk descends all m levels, as no tent of smaller rank covers c/r.
@functools.cache
def _deepest_strip_point():
    m = 10285
    (r, c, _), (next_rank, _, _) = _int_char(1, m), _int_char(1, m + 1)
    assert len(str(r)) < 4300 <= len(str(next_rank))
    k = (2 * c * c - 3 * r * r) // (4 * r)
    return r, c, k


@pytest.mark.parametrize("verb,want", [("classify-point", {"class": "BelowCurve"}),
                                       ("dlp", {"result": "Yes"})])
def test_deepest_strip_point_in_a_fresh_process(verb, want):
    r, c, k = _deepest_strip_point()
    x, y = Fraction(c, r), Fraction(k, r)
    assert Fraction(3, 4) <= x * x / 2 - y < 1
    argv = (["classify-point", "--x", str(x), f"--y={y}"] if verb == "classify-point"
            else ["dlp", "--ch0", str(r), "--ch1", str(c), f"--ch2={k}"])
    assert max(len(digits) for a in argv for digits in re.findall(r"\d+", a)) < 4300
    done, seconds = fresh_run(argv)
    assert done.returncode == 0 and done.stderr == b""
    assert json.loads(done.stdout) == want
    assert seconds < 15.0


# the label 1/2^10285 of _deepest_strip_point: its character, and the triple
# that the left mutation of (0, 1/2^10285, 1/2^10284) builds, write every
# number in fewer than 4300 digits
@pytest.mark.parametrize("argv,want", [
    (["exc", "char", f"1/{2 ** 10285}"], {"char": [str(x) for x in _int_char(1, 10285)[:2]]}),
    (["mutate", "left", "--triple", f"0,1/{2 ** 10285},1/{2 ** 10284}"],
     {"labels": ["0", f"1/{2 ** 10286}", f"1/{2 ** 10285}"]}),
], ids=["exc-char", "mutate"])
def test_deepest_printable_label_in_a_fresh_process(argv, want):
    done, seconds = fresh_run(argv)
    assert done.returncode == 0 and done.stderr == b""
    out = json.loads(done.stdout)
    for key, values in want.items():
        assert out[key][:len(values)] == values
    assert seconds < 15.0


# the rank of the label 1/2^11800, and the kernel generator of this chart
# point on the triple of 1/2^10285, have more than 4300 digits
@pytest.mark.parametrize("argv", [
    ["exc", "char", f"1/{2 ** 11800}"],
    ["classify-cell", "--triple", f"0,1/{2 ** 10285},1/{2 ** 10284}", f"--slots={TRANSPORT_SLOTS}"],
], ids=["exc-char", "classify-cell"])
def test_a_number_past_the_digit_limit_exits_2_in_a_fresh_process(argv):
    done, seconds = fresh_run(argv)
    assert done.returncode == 2 and done.stdout == b""
    line, = done.stderr.splitlines()
    assert "more than 4300 digits" in json.loads(line)["error"]
    assert b"set_int_max_str_digits" not in done.stderr
    assert seconds < 15.0


@pytest.mark.parametrize("depth", ["0", "1", "8"])
def test_exceptional_multiple_is_found_at_every_depth(depth):
    # 2 O(1/2)'s character, whose label 1/2 is one level deep
    done, _ = fresh_run(["dlp", "--ch0", "2", "--ch1", "1", "--ch2=-1/2", "--depth", depth])
    assert done.returncode == 0 and json.loads(done.stdout) == {"result": "YesExceptional"}


def test_exc_char_rank_is_bounded():
    # ranks near 2/3 grow by a factor phi^2 in bit length per level
    d = 40
    done, seconds = fresh_run(["exc", "char", f"{(2 ** (d + 1) + 1) // 3}/{2 ** d}"])
    assert seconds < 2.0
    assert done.returncode == 2 and done.stdout == b""
    assert "bits" in json.loads(done.stderr)["error"]


@pytest.mark.parametrize("argv", [
    ["exc", "char", "1e100000000"],
    ["classify-point", "--x", "1e100000000", "--y", "0"],
    ["wall", "--v", "0,0,1", "--w", "1e100000000,0,0"],
], ids=["exc", "classify-point", "wall"])
def test_huge_decimal_exponent_exits_2_in_a_fresh_process(argv):
    # Fraction alone spends seconds building 10**100000000
    done, seconds = fresh_run(argv)
    assert seconds < 2.0
    assert done.returncode == 2 and done.stdout == b""
    assert "malformed rational" in json.loads(done.stderr)["error"]


# runs stabscope.cli.run(argv) and reports its stdout digest, the
# stabscope modules the process loaded, and the modules loaded before and
# after the CLI's import
_LOADED_MODULES = """
import contextlib, hashlib, io, json, sys
before = set(sys.modules)
from stabscope.cli import run
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = run(sys.argv[1:])
print(json.dumps({"code": code,
                  "sha": hashlib.sha256(out.getvalue().encode()).hexdigest(),
                  "modules": sorted(m for m in sys.modules
                                    if m.startswith("stabscope.")),
                  "before": sorted(before),
                  "loaded": sorted(set(sys.modules) - before)}))
"""

_BASE = ["cli", "corekit", "exceptional", "surd"]
_CHART = ["algebraic", "geometric", "polygon", "triples", "verbs"]
# the first twelve golden entries name each verb once, in the CLI's order
VERB_MODULES = list(zip(GOLDEN_DIGESTS[:12], [
    _BASE,                                          # exc
    _BASE + ["curve", "lepotier", "render"],        # curve
    _BASE + ["lepotier"],                           # classify-point
    _BASE + ["lepotier"],                           # dlp
    _BASE + ["geometric"],                          # charge
    _BASE + ["geometric", "lepotier"],              # stab-region
    _BASE + ["triples", "verbs"],                   # triple
    _BASE + ["triples", "verbs"],                   # mutate
    _BASE + _CHART,                                 # classify-cell
    _BASE + _CHART,                                 # transport
    _BASE + ["verbs", "walls"],                     # wall
    _BASE + ["render", "verbs", "walls"],           # walls
]))


@pytest.mark.parametrize("golden,modules", VERB_MODULES,
                         ids=[g[0][0] for g, _ in VERB_MODULES])
def test_each_verb_loads_only_its_modules(golden, modules):
    argv, digest = golden
    done, _ = fresh_run(argv, program=_LOADED_MODULES)
    assert done.stderr == b""
    report = json.loads(done.stdout)
    assert report["code"] == 0 and report["sha"] == digest
    assert report["modules"] == sorted(f"stabscope.{m}" for m in modules)
    # the records are made without dataclasses, which also loads inspect
    assert "stabscope.cli" in report["loaded"]
    assert not {"dataclasses", "inspect"} & set(report["before"] + report["loaded"])


# runs python -m stabscope.cli with argv, as the benchmark's CLI matrix
# does, and prints the stabscope modules the process loaded on a last line
_MAIN_MODULES = """
import json, runpy, sys
try:
    runpy.run_module("stabscope.cli", run_name="__main__", alter_sys=True)
except SystemExit as e:
    code = e.code
cli = sys.modules.get("stabscope.cli")
print(json.dumps({"code": code, "cli_is_main": cli is not None and cli.__name__ == "__main__",
                  "modules": sorted(m[10:] for m in sys.modules if m.startswith("stabscope."))}))
"""

# code that only a few verbs run: the curve output and its writers, the
# triples and the chart's polygons
_CURVE_CODE = {"curve", "render"}
_TRIPLE_CODE = {"triples", "polygon", "algebraic"}


@pytest.mark.parametrize("golden", GOLDEN_DIGESTS[:14], ids=[" ".join(g[0]) for g in GOLDEN_DIGESTS[:14]])
def test_each_matrix_run_compiles_only_what_it_runs(golden):
    argv, digest = golden
    done, _ = fresh_run(argv, program=_MAIN_MODULES)
    assert done.stderr == b""
    out, _, last = done.stdout.rstrip(b"\n").rpartition(b"\n")
    report = json.loads(last)
    assert report["code"] == 0 and hashlib.sha256(out + b"\n").hexdigest() == digest
    # the helpers stabscope.verbs imports come from the running module, not a copy
    assert report["cli_is_main"]
    loaded = set(report["modules"])
    assert {"cli", "corekit", "exceptional", "surd"} <= loaded
    verb = argv[0]
    if verb in ("classify-point", "dlp", "stab-region"):
        assert not loaded & _CURVE_CODE
    if verb in ("exc", "charge", "wall", "classify-point", "dlp"):
        assert not loaded & _TRIPLE_CODE
    if verb in ("curve", "walls"):
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
        assert ("render" in loaded) == (fmt != "json")
    if verb == "walls":
        assert "lepotier" not in loaded
    if verb in ("exc", "curve", "classify-point", "dlp", "charge", "stab-region"):
        assert "verbs" not in loaded


def test_importing_the_cli_loads_only_the_base_chain():
    done, _ = fresh_run([], program=(
        "import json, sys, stabscope.cli; print(json.dumps(sorted("
        "m for m in sys.modules if m.startswith('stabscope.'))))"))
    assert done.returncode == 0 and done.stderr == b""
    assert json.loads(done.stdout) == ["stabscope.cli", "stabscope.corekit",
                                       "stabscope.exceptional", "stabscope.surd"]


_BAD_TOKENS = st.sampled_from([
    "1e100000000", "-1e-100000000", "1e4300", "1e4301", "9" * 5000, "", "abc",
    "1/0", "nan", "--", "1e", "0x10", "1//2", ","])


def _rationals(span):
    """Rational text of size up to span, one token in twenty malformed."""
    good = st.one_of(
        st.builds("{}/{}".format, st.integers(-span, span),
                  st.sampled_from([1, 2, 3, 4, 8, 16])),
        st.builds("{}e{}".format, st.integers(-9, 9),
                  st.integers(-3, len(str(span)) - 1)))
    return st.integers(0, 19).flatmap(lambda k: _BAD_TOKENS if k == 0 else good)


_TRIPLES = ("0,1,2", "0,1/2,1", "-1,0,1/2", "1/2,1,3/2")
_DEPTHS = st.one_of(st.integers(-2, 12), st.integers(-2, 10 ** 5))
# curve emit costs about 0.3 ms per label of the window at the depth (4 097
# labels of depth <= 12 in [0, 1] took 1.1 s on a 2-vCPU host) and walls
# about 0.1 ms per pool label, so their slope windows stay within [-9, 9]
# and their depths out of 5..13, where a run can take seconds below the
# label cap
_LABEL_DEPTHS = st.one_of(st.integers(-2, 4), st.integers(14, 10 ** 5))


@st.composite
def _cli_argv(draw):
    def rats(n, span=40):
        return ",".join(draw(_rationals(span)) for _ in range(n))

    def pick(*options):
        return draw(st.sampled_from(options))

    depth = f"--depth={draw(_DEPTHS)}"
    fmt = ["--format", pick("json", "csv", "svg")]
    verb = pick("exc", "curve", "classify-point", "dlp", "charge",
                "stab-region", "triple", "mutate", "classify-cell",
                "transport", "wall", "walls")
    if verb == "exc":
        argv = [pick("char", "eplus", "el", "er"), rats(1)]
    elif verb == "curve":
        argv = ["emit", f"--from={rats(1, 4)}", f"--to={rats(1, 4)}",
                f"--depth={draw(_LABEL_DEPTHS)}", *fmt]
    elif verb == "classify-point":
        argv = [f"--x={rats(1)}", f"--y={rats(1)}", depth]
    elif verb == "dlp":
        argv = [f"--ch0={rats(1)}", f"--ch1={rats(1)}", f"--ch2={rats(1)}",
                depth]
    elif verb == "charge":
        argv = ["eval", f"--s={rats(1)}", f"--q={rats(1)}",
                f"--ch0={rats(1)}", f"--ch1={rats(1)}", f"--ch2={rats(1)}"]
    elif verb == "stab-region":
        argv = [f"--label={rats(1)}", depth,
                f"--grid={rats(4)},{draw(st.integers(-1, 4))}"]
    elif verb == "triple":
        argv = ["make", "--pattern", pick("adj", "left", "right"),
                f"--base={rats(1)}"]
    elif verb == "mutate":
        argv = [pick("left", "right"), f"--triple={pick(*_TRIPLES, rats(3))}",
                "--slot", pick("1", "2")]
    elif verb in ("classify-cell", "transport"):
        slots = ",".join(f"{rats(2).replace(',', ':')}:{draw(st.integers(-2, 2))}"
                         for _ in range(3))
        argv = [f"--triple={pick(*_TRIPLES, rats(3))}", depth,
                *pick([f"--slots={TRANSPORT_SLOTS}"], [f"--slots={slots}"],
                      [f"--m={rats(3)}", f"--phi={rats(3)}"])]
        if verb == "transport" and draw(st.booleans()):
            argv.append("--inverse")
    elif verb == "wall":
        argv = [f"--v={rats(3)}", f"--w={rats(3)}"]
    else:
        argv = [f"--v={rats(3)}", f"--pool-depth={draw(_LABEL_DEPTHS)}",
                f"--window={rats(2, 4)},{rats(2)}", *fmt]
    if verb in ("classify-point", "dlp", "stab-region", "classify-cell") \
            and draw(st.booleans()):
        argv.append("--strict")
    return [verb, *argv]


def _parse_stdout(argv, text):
    """Parse stdout by the verb's format; raises when it does not parse."""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    if argv[0] == "stab-region" or fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) >= 1 and all(len(r) == len(rows[0]) for r in rows)
    elif fmt == "svg":
        ET.fromstring(text)
    else:
        json.loads(text)


@seed(8)
@settings(max_examples=60, deadline=None)
@given(_cli_argv())
@example(["triple", "make", "--pattern=--", "--base", "1"])
@example(["curve", "emit", "--from=--", "--to", "1"])
def test_cli_contract_holds_for_drawn_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 2, 3)
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and "error" in json.loads(lines[0])
    else:
        assert err.getvalue() == ""
        _parse_stdout(argv, out.getvalue())


# TRANSPORT_SLOTS as magnitudes 1 and k:c:s unit directions
TRANSPORT_UNITS = "-1:-1:0,1:21/29:20/29,1:-119/169:120/169"


@pytest.mark.parametrize("verb", ["classify-cell", "transport"])
def test_exact_units_match_the_equal_slots(capsys, verb):
    argv = [verb, "--triple", "0,1,2", "--depth", "6"]
    assert _json(capsys, argv + ["--m", "1,1,1", f"--exact-units={TRANSPORT_UNITS}"]) \
        == _json(capsys, argv + [f"--slots={TRANSPORT_SLOTS}"])
    # the same directions at other magnitudes: the value is m * (-1)^k * (c, s)
    ms = [Fraction(2), Fraction(3), Fraction(1, 2)]
    slots = []
    for m, part in zip(ms, TRANSPORT_UNITS.split(",")):
        k, c, s = part.split(":")
        sign = -m if int(k) % 2 else m
        slots.append(f"{sign * Fraction(c)}:{sign * Fraction(s)}:{k}")
    assert _json(capsys, argv + ["--m", "2,3,1/2", f"--exact-units={TRANSPORT_UNITS}"]) \
        == _json(capsys, argv + ["--slots=" + ",".join(slots)])


@pytest.mark.parametrize("extra,message", [
    ([f"--exact-units={TRANSPORT_UNITS}"], "--m is required"),
    (["--m", "1,1,1", f"--exact-units={TRANSPORT_UNITS}", f"--slots={TRANSPORT_SLOTS}"],
     "exactly one of"),
    (["--m", "1,1,1", "--exact-units=-1:-1:0,1:21/29:20/29"], "three k:c:s entries"),
    (["--m", "1,1", f"--exact-units={TRANSPORT_UNITS}"], "expected 3"),
    (["--m", "1,-1,1", f"--exact-units={TRANSPORT_UNITS}"], "nonnegative"),
    (["--m", "1,1,1", "--exact-units=-1:1:1,1:21/29:20/29,1:-119/169:120/169"],
     "unit circle"),
    (["--m", "1,1,1", "--exact-units=-1:1:0,1:21/29:20/29,1:-119/169:120/169"],
     "upper half-plane"),
    (["--m", "1,1,1", "--exact-units=-1:-1,1:21/29:20/29,1:-119/169:120/169"], ""),
    (["--m", "1,1,1", "--exact-units=-1:x:0,1:21/29:20/29,1:-119/169:120/169"],
     "malformed rational"),
    (["--m", "1,1,1", "--phi", "1,2"], "--phi needs three values"),
])
@pytest.mark.parametrize("verb", ["classify-cell", "transport"])
def test_exact_units_usage_errors_exit_2(capsys, verb, extra, message):
    err = _one_json_error(capsys, [verb, "--triple", "0,1,2", *extra])
    assert message in err["error"]


# the first phase is 10^-9 past the integer -1: the tangent of its half
# angle rounds to 0 at denominators up to 10^6, so from_floats clamps it to 10^-6
PHI_PAST_AN_INTEGER = [-0.999999999, 0.5, 1.3]


@pytest.mark.parametrize("verb", ["classify-cell", "transport"])
def test_phi_input_matches_the_slots_from_floats_builds(capsys, verb):
    p = ThetaParams.from_floats([1.0, 1.0, 1.0], PHI_PAST_AN_INTEGER)
    t = Fraction(1, 10 ** 6)
    # the unit (1 - t^2, 2 t)/(1 + t^2), negated on the odd branch -1
    assert p.slots()[0] == (RatComplex(-(1 - t * t) / (1 + t * t), -2 * t / (1 + t * t)), -1)
    argv = [verb, "--triple", "0,1,2", "--depth", "6"]
    from_phi = _json(capsys, argv + ["--m", "1,1,1",
                                     "--phi=" + ",".join(map(str, PHI_PAST_AN_INTEGER))])
    from_slots = _json(capsys, argv + ["--slots=" + ",".join(
        f"{z.re}:{z.im}:{k}" for z, k in p.slots())])
    assert from_phi["exact"] is False and from_slots["exact"] is True
    assert from_phi == {**from_slots, "exact": False}


@pytest.mark.parametrize("v,w,line", [
    ("0,1,0", "1,0,0", "q=0"),
    ("0,1,0", "0,0,1", None),
    ("1,1,0", "0,1,1", "q=1*s-1"),
    ("1,0,1", "0,1,1", "q=1*s+1"),
])
def test_wall_line_texts(capsys, v, w, line):
    assert _json(capsys, ["wall", "--v", v, "--w", w])["line"] == line


def test_walls_skip_a_bundle_parallel_to_the_class(capsys):
    out = _json(capsys, ["walls", "--v", "1,0,0", "--pool-depth", "0",
                         "--window=-1,1,-1,1"])
    assert [w["label"] for w in out["walls"]] == ["1", "-1"]


def test_unknown_verdicts_exit_3_under_strict(capsys):
    # a character takes no budget: the depth-1 label 1/2 decides it at depth 0
    argv = ["dlp", "--ch0", "2", "--ch1", "1", "--ch2=-3/2", "--strict"]
    assert _json(capsys, argv + ["--depth", "0"]) == {"result": "Yes"}
    assert _json(capsys, argv + ["--depth", "1"]) == {"result": "Yes"}
    argv = ["stab-region", "--label", "0", "--grid=-7/10,-6/10,-16/75,-16/75,2", "--strict"]
    # the grid's one row of y
    assert run(argv + ["--depth", "0"]) == 3
    assert capsys.readouterr().out.splitlines()[1:] == \
        ["-7/10,-16/75,Unknown", "-3/5,-16/75,Unknown"]
    assert _ok(capsys, argv + ["--depth", "1"]).splitlines()[1:] == \
        ["-7/10,-16/75,StableUnshifted", "-3/5,-16/75,StableUnshifted"]
    # the chart takes no region test, so a kernel point in the curve strip
    # is decided at depth 0 too, and --strict has no Unknown to refuse
    argv = ["classify-cell", "--triple", "1/2,3/4,1",
            "--slots=2/5:5/8:-2,1:15/16:0,6/5:19/16:0", "--depth", "0", "--strict"]
    assert _json(capsys, argv)["label"] == "GeoCell"


@pytest.mark.parametrize("grid", ["-7/10,-6/10,-16/75,-16/75,3",
                                  "-7/10,-7/10,-16/75,-1/5,3",
                                  "-7/10,-7/10,-16/75,-16/75,4"])
def test_stab_region_prints_each_point_of_a_flat_grid_once(capsys, grid):
    rows = _ok(capsys, ["stab-region", "--label", "0", f"--grid={grid}",
                        "--depth", "1"]).splitlines()[1:]
    x0, x1, y0, y1, n = grid.split(",")
    assert len(rows) == len(set(rows)) == (1 if x0 == x1 else int(n)) * (1 if y0 == y1 else int(n))


def test_stab_region_skips_the_bundles_own_character_below_its_depth(capsys):
    # (1/2, -1/4) is the character of label 1/2; depth 0 used to test the
    # degenerate segment from it to itself and exit 2
    argv = ["stab-region", "--label", "1/2", "--grid=0,1,-1/2,0,3"]
    want = "x,y,result\n1/2,0,StableShifted\n"
    assert _ok(capsys, argv + ["--depth", "0"]) == want
    assert _ok(capsys, argv + ["--depth", "1"]) == want


def test_stab_region_classifies_each_grid_point_once(capsys, monkeypatch):
    # every point class is taken by _classify_ints on the point's integer
    # vector, and only where the segment walk does not clear the point
    calls = []
    classify = lepotier._classify_ints

    def counted(w, X, Y):
        calls.append((w, X, Y))
        return classify(w, X, Y)

    monkeypatch.setattr(lepotier, "_classify_ints", counted)
    out = _ok(capsys, ["stab-region", "--label", "0",
                       "--grid=-1/2,1/2,-1/8,1/8,3", "--depth", "6"])
    # seven of the nine points are in the region.  The two off it, E's own
    # point (0, 0) and (0, -1/8) on its exclusion, are classified, and no
    # point is classified twice
    assert out.splitlines() == ["x,y,result", "-1/2,-1/8,StableUnshifted",
                                "1/2,-1/8,StableShifted", "-1/2,0,StableUnshifted",
                                "1/2,0,StableShifted", "-1/2,1/8,StableUnshifted",
                                "0,1/8,StableShifted", "1/2,1/8,StableShifted"]
    assert {(1, 0, 0), (8, 0, -1)} <= set(calls)
    assert len(calls) == len(set(calls))


def test_top_level_help_lists_every_verb_with_its_help_line(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        run(["--help"])
    listed = re.findall(r"^    (\S+) +(\S.*)$", capsys.readouterr().out, re.M)
    assert len(listed) == 12
    assert listed == [(verb, help_line) for verb, (help_line, _, _) in _VERBS.items()]


@pytest.mark.parametrize("option,fields,value", [
    ("--exact-units", "k:c:s", "-1:-1,1:21/29:20/29,1:-119/169:120/169"),
    ("--slots", "re:im:k", "1:0,-21/29:-20/29:1,119/169:-120/169:1"),
    ("--slots", "re:im:k", "1:0:-1:0,-21/29:-20/29:1,119/169:-120/169:1"),
    ("--slots", "re:im:k", "1:0:-1,-21/29:-20/29:1"),
])
@pytest.mark.parametrize("verb", ["classify-cell", "transport"])
def test_chart_entries_need_three_fields(capsys, verb, option, fields, value):
    extra = ["--m", "1,1,1"] if option == "--exact-units" else []
    err = _one_json_error(capsys, [verb, "--triple", "0,1,2", *extra, f"{option}={value}"])
    assert err == {"error": f"{option} needs three {fields} entries"}


@pytest.mark.parametrize("argv,message", [
    (["mutate", "left", "--triple", "0,1"],
     "a triple needs three comma-separated labels"),
    (["classify-cell", "--triple", "0,1,2", "--m", "1,1,1", f"--slots={TRANSPORT_SLOTS}"],
     "--slots already encodes magnitudes; drop --m"),
    (["stab-region", "--label", "0", "--grid=-1/2,1/2,-1/8,1/8"],
     "grid must be x0,x1,y0,y1,n"),
    (["stab-region", "--label", "0", "--grid=-1/2,1/2,-1/8,1/8,1"],
     "grid needs at least two samples per axis"),
    (["--x", "1"], "option --x is given before the verb: options follow the verb"),
    (["--depth=3", "dlp"], "option --depth is given before the verb: options follow the verb"),
])
def test_usage_errors_name_their_cause(capsys, argv, message):
    assert _one_json_error(capsys, argv) == {"error": message}
