"""The one reader and the one writer of the files stages hand each other."""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil

from .errors import DataError


def _remove(path: str) -> None:
    with contextlib.suppress(FileNotFoundError):
        (shutil.rmtree if os.path.isdir(path) else os.unlink)(path)


def remove(path: str) -> None:
    """Delete the file or tree at `path`, if any; an `OSError` raises a DataError naming it."""
    try:
        _remove(path)
    except OSError as exc:
        raise DataError(f"{path}: cannot remove: {exc}") from None


@contextlib.contextmanager
def writing(path: str):
    """Raise an `OSError` of the block as a DataError naming `path`; other
    errors pass through."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"{path}: cannot write: {exc}") from None


@contextlib.contextmanager
def staging(paths: list[str]):
    """Yield the temp `<path>.partial` of each of `paths`, for this process
    or its workers to write a file or directory at, and for `commit(path)`
    to rename onto `path` once complete: a reader finds the whole artifact
    or none.  A temp that a killed run left is cleared first and each parent
    directory made; on leaving, error or not, every temp not committed is
    removed.  An `OSError` in these steps raises a DataError naming its path."""
    staged = []
    try:
        for path in paths:
            with writing(path):
                _remove(path + ".partial")
                os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            staged.append(path)
        yield [path + ".partial" for path in staged]
    finally:
        for path in staged:
            with writing(path):
                _remove(path + ".partial")


def commit(path: str) -> None:
    """Rename the staged temp of `path` (see `staging`) onto it, replacing
    what is there; an `OSError` raises a DataError naming `path`."""
    with writing(path):
        if os.path.isdir(path):  # os.replace renames a directory only onto an empty one
            shutil.rmtree(path)
        os.replace(path + ".partial", path)


@contextlib.contextmanager
def publish(path: str):
    """Stage `path` (see `staging`), yield its temp for the block to write
    a file or directory at, and commit it once the block completes; if the
    block raises, the temp is removed.  Any `OSError`, the block's included,
    raises a DataError naming `path`; other errors pass through."""
    with staging([path]) as [tmp], writing(path):
        yield tmp
        commit(path)


def write(path: str, data: bytes | str) -> None:
    """Publish `data`, bytes or text as UTF-8, as the whole file at `path`;
    faults as for `publish`."""
    with publish(path) as tmp, open(tmp, "wb") as fh:
        fh.write(data.encode("utf-8") if isinstance(data, str) else data)


def read(path: str, error: type[Exception] = DataError, missing: str = "") -> bytes:
    """The bytes of the file at `path`.  A missing file raises `error(missing)`
    when `missing` is given; any other fault raises an `error` naming the file."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        if missing and isinstance(exc, FileNotFoundError):
            raise error(missing) from None
        raise error(f"{path}: cannot read: {exc}") from None


def read_json(path: str, error: type[Exception] = DataError, missing: str = ""):
    """The JSON document at `path`; faults as for `read`, and invalid JSON
    raises an `error` naming the file."""
    try:
        return json.loads(read(path, error, missing))
    except ValueError as exc:
        raise error(f"{path}: invalid JSON: {exc}") from None


def read_rows(path: str, kinds: tuple | None = None, sep: str | None = None):
    """Yield (line number, fields split at `sep`) for each line of the UTF-8
    text file at `path` that is neither blank nor a `#` comment.  With
    `kinds`, a line has one field per kind, converted by it.  Every fault
    is a DataError naming the file, and the line where there is one."""
    try:
        text = read(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(sep)
        if kinds is not None:
            if len(fields) != len(kinds):
                raise DataError(f"{path}:{lineno}: expected {len(kinds)} fields, "
                                f"got {len(fields)}")
            try:
                fields = [kind(f) for kind, f in zip(kinds, fields)]
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: malformed value: {exc}") from None
        yield lineno, fields
