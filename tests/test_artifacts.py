"""The artifact reader and writer: a file is written whole or not at all, and
every fault in reading one is an error naming it."""

import errno
import os
import re
from pathlib import Path

import pytest

from hhmon import artifacts, checkpoint, clipset, frameio, pipeline, pose, tracking
from hhmon.config import PipelineConfig
from hhmon.errors import DataError, ModelError


def write_file(path, text):
    Path(path).write_text(text)


def write_dir(path, text):
    os.mkdir(path)
    write_file(os.path.join(path, "a.txt"), text)


def read(path):
    if os.path.isdir(path):
        return {p.name: p.read_text() for p in Path(path).iterdir()}
    return Path(path).read_text()


@pytest.mark.parametrize("write", [write_file, write_dir], ids=["file", "directory"])
def test_publish_replaces_the_artifact_only_when_the_block_completes(tmp_path, write):
    path = str(tmp_path / "sub" / "artifact")
    with artifacts.publish(path) as tmp:  # makes the parent directory
        assert tmp == path + ".partial"
        write(tmp, "old")
        assert not os.path.exists(path)
    old = read(path)

    with pytest.raises(KeyboardInterrupt):
        with artifacts.publish(path) as tmp:
            write(tmp, "new")
            raise KeyboardInterrupt
    assert read(path) == old
    assert os.listdir(tmp_path / "sub") == ["artifact"]

    with artifacts.publish(path) as tmp:
        write(tmp, "new")
    assert read(path) != old
    assert os.listdir(tmp_path / "sub") == ["artifact"]


@pytest.mark.parametrize("write", [write_file, write_dir], ids=["file", "directory"])
def test_a_raising_first_publish_leaves_no_artifact(tmp_path, write):
    # an OSError becomes a DataError naming the artifact; any other error
    # passes through as it was raised
    path = str(tmp_path / "artifact")
    with pytest.raises(DataError, match=f"^{re.escape(path)}: cannot write: disk full$"):
        with artifacts.publish(path) as tmp:
            write(tmp, "half")
            raise OSError("disk full")
    assert os.listdir(tmp_path) == []
    error = ValueError("bad value")
    with pytest.raises(ValueError) as raised:
        with artifacts.publish(path) as tmp:
            write(tmp, "half")
            raise error
    assert raised.value is error
    assert os.listdir(tmp_path) == []


@pytest.fixture
def read_only_root(tmp_path, monkeypatch):
    """A directory whose file system refuses every new entry with EROFS.  A
    process running as root ignores directory modes, so the refusal is put
    into the calls that make or rename an entry."""
    root = tmp_path / "root"
    root.mkdir()

    def refuse(call):
        def refused(path, *args, **kwargs):
            if os.fspath(path).startswith(str(root)):
                raise OSError(errno.EROFS, os.strerror(errno.EROFS), os.fspath(path))
            return call(path, *args, **kwargs)
        return refused

    for name in ("mkdir", "replace"):
        monkeypatch.setattr(os, name, refuse(getattr(os, name)))
    return root


def publish_with(write):
    def publish(path):
        with artifacts.publish(path) as tmp:
            write(tmp, "new")
    return publish


@pytest.mark.parametrize("publish", [publish_with(write_file), publish_with(write_dir),
                                     lambda path: artifacts.write(path, "new")],
                         ids=["file", "directory", "write"])
def test_a_read_only_root_is_a_data_error_naming_the_artifact(read_only_root, publish):
    for path in (read_only_root / "artifact", read_only_root / "sub" / "artifact"):
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: cannot write: .*Read-only"):
            publish(str(path))
    assert os.listdir(read_only_root) == []


@pytest.mark.parametrize("stale", [write_file, write_dir], ids=["file", "directory"])
@pytest.mark.parametrize("write", [write_file, write_dir], ids=["file", "directory"])
def test_publish_clears_a_temp_a_killed_run_left(tmp_path, write, stale):
    path = str(tmp_path / "artifact")
    stale(path + ".partial", "junk")
    with artifacts.publish(path) as tmp:
        assert not os.path.exists(tmp)
        write(tmp, "fresh")
    assert "junk" not in str(read(path))
    assert os.listdir(tmp_path) == ["artifact"]


def test_read_json_maps_every_fault_to_the_callers_error(tmp_path):
    path = tmp_path / "doc.json"
    with pytest.raises(DataError, match="^no doc here$"):
        artifacts.read_json(str(path), DataError, "no doc here")
    path.write_text("{not json")
    with pytest.raises(DataError, match=f"^{path}: invalid JSON"):
        artifacts.read_json(str(path), DataError, "no doc here")
    with pytest.raises(DataError, match=f"^{tmp_path}: cannot read"):
        artifacts.read_json(str(tmp_path), DataError, "no doc here")  # a directory
    path.write_text('{"a": [1]}')
    assert artifacts.read_json(str(path), DataError, "no doc here") == {"a": [1]}


def test_read_maps_every_fault_to_the_callers_error(tmp_path):
    path = tmp_path / "blob"
    with pytest.raises(DataError, match="^no blob here$"):
        artifacts.read(str(path), missing="no blob here")
    with pytest.raises(ModelError, match=f"^{path}: cannot read: .*No such file"):
        artifacts.read(str(path), ModelError)
    with pytest.raises(DataError, match=f"^{tmp_path}: cannot read"):
        artifacts.read(str(tmp_path), missing="no blob here")  # a directory
    path.write_bytes(b"\xff\x00")
    assert artifacts.read(str(path)) == b"\xff\x00"


def test_write_publishes_bytes_and_text_as_utf8(tmp_path):
    path = tmp_path / "sub" / "doc.txt"
    artifacts.write(str(path), "café\n")
    assert path.read_bytes() == b"caf\xc3\xa9\n"
    artifacts.write(str(path), b"\xff")
    assert path.read_bytes() == b"\xff"
    assert os.listdir(tmp_path / "sub") == ["doc.txt"]


def test_read_rows_skips_blank_and_comment_lines_and_counts_every_line(tmp_path):
    path = tmp_path / "rows.txt"
    path.write_bytes(b"# head\n1  2.5 a\n\n   \r\n  # indented comment\n3\t4.0 b\r\n5 6 c")
    assert list(artifacts.read_rows(str(path))) == [
        (2, ["1", "2.5", "a"]), (6, ["3", "4.0", "b"]), (7, ["5", "6", "c"])]
    assert list(artifacts.read_rows(str(path), (int, float, str))) == [
        (2, [1, 2.5, "a"]), (6, [3, 4.0, "b"]), (7, [5, 6.0, "c"])]
    path.write_text("a,,b\n")
    assert list(artifacts.read_rows(str(path), sep=",")) == [(1, ["a", "", "b"])]


def test_read_rows_names_the_file_and_line_of_a_fault(tmp_path):
    path = tmp_path / "rows.txt"
    path.write_text("1 2\n3\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:2: expected 2 fields, got 1$"):
        list(artifacts.read_rows(str(path), (int, int)))
    path.write_text("1 2\n3 x\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:2: malformed value: invalid"):
        list(artifacts.read_rows(str(path), (int, int)))
    path.write_bytes(b"1 2\n3 \xff\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
        next(artifacts.read_rows(str(path)))


# Each reader of a stage file, the error it raises and whether its format is text.
READERS = {
    "load_tracks": (tracking.load_tracks, DataError, True),
    "parse_corrections": (tracking.parse_corrections, DataError, True),
    "load_annotations": (clipset.load_annotations, DataError, True),
    "load_poses": (pose.load_poses, DataError, True),
    "read_ppm": (frameio.read_ppm, DataError, False),
    "read_flo2": (frameio.read_flo2, DataError, False),
    "load_network": (checkpoint.load_network, ModelError, False),
}


@pytest.mark.parametrize("name", READERS)
def test_a_stage_file_reader_names_a_directory_in_place_of_its_file(tmp_path, name):
    read, error, _ = READERS[name]
    path = tmp_path / "artifact"
    path.mkdir()
    with pytest.raises(error, match=f"^{re.escape(str(path))}: cannot read"):
        read(str(path))


@pytest.mark.parametrize("name", [name for name, (*_, text) in READERS.items() if text])
def test_a_text_reader_names_a_file_that_is_not_utf8(tmp_path, name):
    path = tmp_path / "artifact.txt"
    path.write_bytes(b"# \xff\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
        READERS[name][0](str(path))


def test_the_dataset_hash_names_a_directory_in_place_of_its_file(tmp_path):
    cfg = PipelineConfig()
    cfg.paths.work_dir = str(tmp_path)
    (tmp_path / "annotations.csv").mkdir()
    with pytest.raises(DataError, match=f"^{re.escape(str(tmp_path))}/annotations.csv: cannot read"):
        pipeline._dataset_hash(cfg)
