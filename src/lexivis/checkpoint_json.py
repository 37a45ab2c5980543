"""Checkpoint JSON read through a bounded text buffer.

The file is read ``_CHUNK`` characters at a time. Keys and small values go
through ``json.JSONDecoder.raw_decode``. Each tensor's ``"data"`` list is
decoded one comma-aligned slice at a time with ``json.loads``, which keeps
json's number semantics (``NaN``, ``Infinity``, exact float parsing), and is
copied straight into a float64 array, so memory beyond the tensors is one
slice. Syntax errors and data elements that are not JSON numbers raise
``DataError`` naming the file. Which keys and shapes a checkpoint must hold
is checked by ``encoder.load_checkpoint``.
"""

from __future__ import annotations

import json
import re

import numpy as np

from .errors import DataError

_CHUNK = 8192  # characters per read
_JSON_WS = re.compile(r"[ \t\n\r]*")
_NUMBER_TAIL = re.compile(r"[0-9.eE+-]*")
_JSON_DECODER = json.JSONDecoder()


def load(path) -> dict:
    """The JSON object at ``path``; each ``tensors.<name>.data`` list becomes a float64 array."""
    with open(path, encoding="utf-8") as handle:
        return _Reader(handle, path).read()


class _Reader:
    """A recursive-descent walk over the payload object, one buffer refill at a time."""

    def __init__(self, handle, path):
        self.handle, self.path = handle, path
        self.buf, self.pos = "", 0
        self.offset = 0  # file position (in characters) of buf[0]

    def read(self) -> dict:
        if not self._take("{"):
            raise DataError(f"{self.path}: checkpoint must be a JSON object")
        payload = self._object(self._member)
        if self._peek():
            raise self._error("extra data", self.pos)
        return payload

    def _more(self) -> bool:
        """Drop the consumed text and append more; False at the end of the file.

        A value longer than the buffer doubles the read, so it is re-decoded
        O(log n) times.
        """
        try:
            text = self.handle.read(max(_CHUNK, len(self.buf) - self.pos))
        except UnicodeDecodeError as exc:
            raise DataError(f"{self.path}: checkpoint is not UTF-8 text ({exc.reason})") from None
        self.offset += self.pos
        self.buf, self.pos = self.buf[self.pos :] + text, 0
        return bool(text)

    def _error(self, message: str, pos: int) -> DataError:
        return DataError(
            f"{self.path}: malformed checkpoint JSON at char {self.offset + pos}: {message}"
        )

    def _peek(self) -> str:
        """The next non-whitespace character, or "" at the end of the file."""
        while True:
            self.pos = _JSON_WS.match(self.buf, self.pos).end()
            if self.pos < len(self.buf) or not self._more():
                return self.buf[self.pos : self.pos + 1]

    def _take(self, char: str) -> bool:
        """Consume ``char`` if it is the next non-whitespace character."""
        if self._peek() != char:
            return False
        self.pos += 1
        return True

    def _expect(self, chars: str) -> str:
        char = self._peek()
        if not char or char not in chars:
            raise self._error(f"expecting {' or '.join(map(repr, chars))}", self.pos)
        self.pos += 1
        return char

    def _value(self):
        self._peek()
        while True:
            try:
                value, end = _JSON_DECODER.raw_decode(self.buf, self.pos)
            except json.JSONDecodeError as exc:
                error = self._error(exc.msg, exc.pos)
                if not self._more():
                    raise error from None
                continue
            except (ValueError, RecursionError) as exc:  # a too-long integer, too-deep nesting
                raise self._error(str(exc), self.pos) from None
            # A number whose characters reach the end of the buffer ("1." of
            # "1.5") may go on past it.
            if _NUMBER_TAIL.match(self.buf, end).end() < len(self.buf) or not self._more():
                self.pos = end
                return value

    def _object(self, member) -> dict:
        """The members after an object's "{"; ``member(key)`` reads each value."""
        out = {}
        if self._take("}"):
            return out
        while True:
            if self._peek() != '"':
                raise self._error("expecting a property name in double quotes", self.pos)
            key = self._value()
            self._expect(":")
            out[key] = member(key)
            if self._expect(",}") == "}":
                return out

    def _member(self, key: str):
        if key == "tensors" and self._take("{"):
            return self._object(self._tensor)
        return self._value()

    def _tensor(self, name: str):
        if self._take("{"):
            return self._object(lambda key: self._data(name) if key == "data" else self._value())
        return self._value()

    def _data(self, name: str):
        if not self._take("["):
            return self._value()
        out, n, after_comma = np.empty(0), 0, False
        while True:
            # Numbers hold no "]" or ",": the first "]" closes a valid list, and
            # text up to the buffer's last comma holds whole numbers only.
            end = self.buf.find("]", self.pos)
            cut = end if end >= 0 else self.buf.rfind(",", self.pos)
            if cut < 0:
                if not self._more():
                    raise self._error(f"tensor {name!r} data list is not closed", self.pos)
                continue
            try:
                values = json.loads("[" + self.buf[self.pos : cut] + "]")
            except json.JSONDecodeError as exc:
                raise self._error(exc.msg, self.pos + exc.pos - 1) from None
            except ValueError as exc:  # an integer too long to convert
                raise self._error(str(exc), self.pos) from None
            if not values and (after_comma or end < 0):
                raise self._error("expecting value", cut)
            if not set(map(type, values)) <= {float, int}:
                raise DataError(f"{self.path}: tensor {name!r} data must hold only JSON numbers")
            try:
                chunk = np.array(values, dtype=np.float64)
            except OverflowError as exc:
                raise DataError(f"{self.path}: tensor {name!r} data: {exc}") from None
            if n + chunk.size > out.size:  # grow in place by a quarter: little slack
                out.resize(max(out.size + out.size // 4, n + chunk.size), refcheck=False)
            out[n : n + chunk.size] = chunk
            n += chunk.size
            self.pos = cut + 1
            if end >= 0:
                out.resize(n, refcheck=False)
                return out
            after_comma = True
