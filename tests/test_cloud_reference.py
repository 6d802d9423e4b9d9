"""The cloud reader and writer behave like the earlier per-point versions.

`reference_read_cloud` and `reference_write_cloud` are the earlier
implementations, which loop over the points and make one NumPy call per
point; they are kept here as the reference. `data.read_cloud` must return a
bit-identical cloud or raise a ValueError with the reference's exact
message. The one exception: where the reference lets an OverflowError out
(a label too large for int64), the reader raises the typed error of that
line's first failing check, the label range or, before it, finiteness.
`data.write_cloud` must write byte-identical files.
"""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_file_fuzz import FUZZ, flips, truncations

from openset3cm import data as dt

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def reference_write_cloud(cloud: dt.LabeledCloud, path) -> None:
    cloud.validate()
    lines = [f"#pcd v1 n={cloud.n_points} category={cloud.category}"]
    for (x, y, z), lbl in zip(cloud.points, cloud.part_labels):
        lines.append(f"{x:.17g} {y:.17g} {z:.17g} {int(lbl)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_read_cloud(path) -> dt.LabeledCloud:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise dt._not_utf8(path) from None
    if not lines:
        raise ValueError(f"{path}:1: empty file")
    m = dt._HEADER_RE.match(lines[0])
    if not m:
        raise ValueError(f"{path}:1: bad header {lines[0]!r}")
    n, category = int(m.group(1)), int(m.group(2))
    if n < 1:
        raise ValueError(f"{path}:1: cloud must contain at least one point")
    if len(lines) - 1 < n:
        raise ValueError(f"{path}: expected {n} point lines, found {len(lines) - 1}")
    pts = np.empty((n, 3))
    labels = np.empty(n, dtype=np.int64)
    for i in range(n):
        lineno = i + 2
        tokens = lines[1 + i].split()
        if len(tokens) != 4:
            raise ValueError(f"{path}:{lineno}: expected 'x y z label', got {lines[1 + i]!r}")
        try:
            pts[i] = [float(t) for t in tokens[:3]]
            labels[i] = int(tokens[3])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: unparsable numbers") from None
        if not np.all(np.isfinite(pts[i])):
            raise ValueError(f"{path}:{lineno}: non-finite coordinate")
        if not 0 <= labels[i] < dt.N_PART_LABELS:
            raise ValueError(
                f"{path}:{lineno}: label {labels[i]} outside [0, {dt.N_PART_LABELS})"
            )
    for extra in range(n + 1, len(lines)):
        if lines[extra].strip():
            raise ValueError(f"{path}:{extra + 1}: trailing content after {n} points")
    cloud = dt.LabeledCloud(pts, labels, category, seed=-1)
    try:
        cloud.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return cloud


def outcome(reader, path):
    """What a reader makes of a file: the cloud's exact bits, or its error."""
    try:
        c = reader(path)
    except ValueError as exc:
        return ("ValueError", str(exc))
    except OverflowError:
        return ("OverflowError",)
    arrays = (c.points, c.part_labels)
    return ("cloud", c.category, c.seed, *((a.dtype, a.shape, a.tobytes()) for a in arrays))


def assert_reads_like_reference(path, raw: bytes) -> None:
    path.write_bytes(raw)
    got, want = outcome(dt.read_cloud, path), outcome(reference_read_cloud, path)
    if want == ("OverflowError",):
        # the overflowing line fails one of the last two checks instead
        label = rf"label -?\d+ outside \[0, {dt.N_PART_LABELS}\)"
        typed = rf"{re.escape(str(path))}:\d+: (non-finite coordinate|{label})"
        assert got[0] == "ValueError" and re.fullmatch(typed, got[1]), got
    else:
        assert got == want


@pytest.fixture(scope="module")
def cloud_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("cloud") / "shape.pcd"
    reference_write_cloud(dt.generate_shape(3, 12, seed=1), path)
    return path.read_bytes()


# tokens Python's float/int accept or reject, including spellings a NumPy
# text parser would not take (underscores, Arabic-Indic digits)
TOKENS = ["0.5", "-0", "1_0", "٣", "+.25", "1e-320", "nan", "inf", "-1e999", "0x1",
          "1.5", "20", "21", "-1", "99999999999999999999", "", "a", "٠.٣"]


@st.composite
def point_files(draw):
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(
        st.lists(st.sampled_from(TOKENS), min_size=3, max_size=5), min_size=n, max_size=n + 1
    ))
    body = "".join(" ".join(row) + "\n" for row in rows)
    return f"#pcd v1 n={n} category=2\n{body}".encode("utf-8")


class TestReaderMatchesReference:
    def test_round_trip(self, cloud_bytes, tmp_path):
        assert_reads_like_reference(tmp_path / "shape.pcd", cloud_bytes)
        assert outcome(dt.read_cloud, tmp_path / "shape.pcd")[0] == "cloud"

    def test_truncations(self, cloud_bytes, tmp_path):
        @FUZZ
        @given(truncations(cloud_bytes))
        def check(raw):
            assert_reads_like_reference(tmp_path / "shape.pcd", raw)

        check()

    def test_byte_flips(self, cloud_bytes, tmp_path):
        @FUZZ
        @given(flips(cloud_bytes))
        def check(raw):
            assert_reads_like_reference(tmp_path / "shape.pcd", raw)

        check()

    def test_token_spellings(self, tmp_path):
        @FUZZ
        @given(point_files())
        def check(raw):
            assert_reads_like_reference(tmp_path / "tokens.pcd", raw)

        check()

    @pytest.mark.parametrize(
        "body",
        [
            # one line failing several checks reports the first in the reference's order
            "inf 0 0 21", "0 nan 0 -1", "a 0 0 21", "0 0 inf 1.5", "0 0 0.5 21 x", "0 0 0.5",
            # the first failing line wins over a later line failing an earlier check
            "0 inf 0 0\n0 x 0 0",
            # spellings Python's float/int accept
            "0.1_0 \u0660.\u0663 -0 1_0",
        ],
    )
    def test_check_order(self, body, tmp_path):
        lines = ["0 0 0.5 0", *body.split("\n")]
        raw = f"#pcd v1 n={len(lines)} category=0\n" + "".join(f"{line}\n" for line in lines)
        assert_reads_like_reference(tmp_path / "order.pcd", raw.encode())

    def test_overflowing_label(self, tmp_path):
        raw = b"#pcd v1 n=1 category=0\n0.1 0.2 0.3 99999999999999999999\n"
        assert_reads_like_reference(tmp_path / "huge.pcd", raw)
        assert outcome(reference_read_cloud, tmp_path / "huge.pcd") == ("OverflowError",)


def assert_writes_like_reference(cloud, tmp_path) -> None:
    reference_write_cloud(cloud, tmp_path / "want.pcd")
    dt.write_cloud(cloud, tmp_path / "got.pcd")
    assert (tmp_path / "got.pcd").read_bytes() == (tmp_path / "want.pcd").read_bytes()


class TestWriterMatchesReference:
    def test_generated_shapes(self, tmp_path):
        @FUZZ
        @given(st.integers(0, len(dt.CATEGORIES) - 1), st.integers(8, 64), st.integers(0, 2**32))
        def check(category, n_points, seed):
            assert_writes_like_reference(dt.generate_shape(category, n_points, seed), tmp_path)

        check()

    def test_edge_values(self, tmp_path):
        # negative zero, the smallest subnormal, a unit coordinate, the largest label
        points = np.array([[-0.0, 5e-324, 1.0], [0.0, -1.0, -0.0], [1e-300, -2.5e-310, 0.5]])
        labels = np.array([dt.N_PART_LABELS - 1, 0, 7], dtype=np.int64)
        cloud = dt.LabeledCloud(points, labels, category=7)
        assert_writes_like_reference(cloud, tmp_path)
        assert dt.read_cloud(tmp_path / "got.pcd").points.tobytes() == points.tobytes()
