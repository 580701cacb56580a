"""The one writer and the one JSON reader of the files stages hand each other."""

from __future__ import annotations

import contextlib
import json
import os
import shutil


def _remove(path: str) -> None:
    if os.path.isdir(path):
        shutil.rmtree(path)
    else:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)


@contextlib.contextmanager
def publish(path: str):
    """Yield `<path>.partial` for the block to write a file or directory at,
    and rename it onto `path`, replacing what is there, once the block
    completes: a reader finds the whole artifact or none.  A temp that a
    killed run left is cleared first and the parent directory made; if the
    block raises, the temp is removed."""
    tmp = path + ".partial"
    _remove(tmp)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    try:
        yield tmp
        if os.path.isdir(path):  # os.replace renames a directory only onto an empty one
            shutil.rmtree(path)
        os.replace(tmp, path)
    finally:
        _remove(tmp)


def read_json(path: str, error: type[Exception], missing: str):
    """The JSON document at `path`.  A missing file raises `error(missing)`;
    an unreadable file or invalid JSON raises an `error` naming the file."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise error(missing) from None
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc}") from None
    except ValueError as exc:
        raise error(f"{path}: invalid JSON: {exc}") from None
