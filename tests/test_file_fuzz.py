"""Damaged files: every reader either loads the bytes or raises a ValueError
that starts with the file's path. Byte truncations and byte flips are
drawn by Hypothesis from a real checkpoint and a real cloud file."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openset3cm import cli
from openset3cm import data as dt
from openset3cm import model as md

# a numeric warning on the way to a verdict (say, an overflow inside a norm)
# fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

FUZZ = settings(max_examples=60, deadline=None)


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "weights.txt"
    md.save_params(md.init_params(3, seed=0, hidden=(4, 6)), path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def cloud_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("cloud") / "shape.pcd"
    dt.write_cloud(dt.generate_shape(3, 12, seed=1), path)
    return path.read_bytes()


def assert_loads_or_names_path(reader, path, raw: bytes) -> None:
    path.write_bytes(raw)
    try:
        reader(path)
    except ValueError as exc:
        assert str(exc).startswith(str(path)), str(exc)


def truncations(raw):
    return st.integers(0, len(raw) - 1).map(lambda n: raw[:n])


def flips(raw):
    def flip(at_value):
        at, value = at_value
        return raw[:at] + bytes([value]) + raw[at + 1 :]

    return st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255)).map(flip)


class TestCheckpointFuzz:
    def test_truncations(self, checkpoint_bytes, tmp_path):
        @FUZZ
        @given(truncations(checkpoint_bytes))
        def check(raw):
            assert_loads_or_names_path(md.load_params, tmp_path / "weights.txt", raw)

        check()

    def test_byte_flips(self, checkpoint_bytes, tmp_path):
        @FUZZ
        @given(flips(checkpoint_bytes))
        def check(raw):
            assert_loads_or_names_path(md.load_params, tmp_path / "weights.txt", raw)

        check()


class TestCloudFuzz:
    def test_truncations(self, cloud_bytes, tmp_path):
        @FUZZ
        @given(truncations(cloud_bytes))
        def check(raw):
            assert_loads_or_names_path(dt.read_cloud, tmp_path / "shape.pcd", raw)

        check()

    def test_byte_flips(self, cloud_bytes, tmp_path):
        @FUZZ
        @given(flips(cloud_bytes))
        def check(raw):
            assert_loads_or_names_path(dt.read_cloud, tmp_path / "shape.pcd", raw)

        check()


class TestUndecodable:
    """One invalid UTF-8 byte: a ValueError naming path and line, not a
    bare UnicodeDecodeError."""

    @staticmethod
    def damage(path, lineno: int) -> None:
        lines = path.read_bytes().split(b"\n")
        lines[lineno - 1] += b"\xff"
        path.write_bytes(b"\n".join(lines))

    def test_checkpoint(self, checkpoint_bytes, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_bytes(checkpoint_bytes)
        self.damage(path, 4)
        with pytest.raises(ValueError) as info:
            md.load_params(path)
        assert str(info.value).startswith(f"{path}:4: not UTF-8 text")

    def test_cloud(self, cloud_bytes, tmp_path):
        path = tmp_path / "shape.pcd"
        path.write_bytes(cloud_bytes)
        self.damage(path, 3)
        with pytest.raises(ValueError) as info:
            dt.read_cloud(path)
        assert str(info.value).startswith(f"{path}:3: not UTF-8 text")

    def test_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"seed = 1\nlambda = 0.5 # caf\xe9\n")
        with pytest.raises(ValueError) as info:
            cli._read_config_file(path)
        assert str(info.value).startswith(f"{path}:2: not UTF-8 text")

    def test_eval_prints_path(self, checkpoint_bytes, tmp_path, capsys):
        path = tmp_path / "weights.txt"
        path.write_bytes(checkpoint_bytes)
        self.damage(path, 2)
        rc = cli.main(["eval", "--checkpoint", str(path), "shapes_per_category=5"])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {path}:2: not UTF-8 text")


class TestSuperscriptDigits:
    """'²' passes str.isdigit but not int(): headers must still name the path."""

    def test_checkpoint_layer_count(self, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("#params v1\nlayers ²\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            md.load_params(path)
        assert str(info.value).startswith(f"{path}:2:")

    def test_checkpoint_tensor_shape(self, checkpoint_bytes, tmp_path):
        path = tmp_path / "weights.txt"
        text = checkpoint_bytes.decode("utf-8").replace("tensor mlp_w0 3 4", "tensor mlp_w0 3 ²")
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as info:
            md.load_params(path)
        assert str(info.value).startswith(f"{path}:3:")

    def test_manifest_category(self, tmp_path):
        dt.write_corpus_dir(dt.generate_corpus(1, 16, seed=2, categories=[0]), tmp_path / "c")
        manifest = tmp_path / "c" / "manifest.txt"
        manifest.write_text(manifest.read_text().replace(" 0 ", " ² "), encoding="utf-8")
        with pytest.raises(ValueError) as info:
            dt.load_corpus_dir(tmp_path / "c")
        assert str(info.value).startswith(f"{manifest}:1:")
