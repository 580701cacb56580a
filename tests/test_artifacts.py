"""The artifact writer and JSON reader: whole or absent, never a temp left."""

import os
from pathlib import Path

import pytest

from hhmon import artifacts
from hhmon.errors import DataError


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
    path = str(tmp_path / "artifact")
    with pytest.raises(OSError):
        with artifacts.publish(path) as tmp:
            write(tmp, "half")
            raise OSError("disk full")
    assert os.listdir(tmp_path) == []


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
