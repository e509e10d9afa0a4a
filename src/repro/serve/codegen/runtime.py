"""ctypes runtime for the ``compiled`` backend.

One :class:`GraphProgram` per compiled model collects every native
node's renderer at kernel-compile time; once the backend has compiled
the whole graph it renders one C translation unit for all of them,
builds (or reuses) the cached ``.so``, loads it, and binds one function
pointer per (node, role). The batch size is each function's first
argument, so that single library serves every batch size and stream
shape: nothing is compiled on the request path. Kernels then call
straight into native code with raw buffer addresses — no per-op numpy
dispatch on the glue.

Libraries are ``dlopen``ed once per process and memoized: two models
compiled from the same artifact share one mapped library.
"""

from __future__ import annotations

import ctypes
import threading
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.errors import CompileError
from repro.serve.codegen.build import build_library
from repro.serve.codegen.renderer import CSegment, render_module

_dlopen_lock = threading.Lock()
_loaded: Dict[str, ctypes.CDLL] = {}


def load_library(path: Path, source: Optional[str] = None) -> ctypes.CDLL:
    """``dlopen`` with a process-wide memo (cache hits share mappings).

    The build cache is bounded, so another process may evict ``path``
    between its build and this load. Given the ``source`` it was built
    from, a vanished library is rebuilt once and loaded from its new
    path.
    """
    with _dlopen_lock:
        library = _loaded.get(str(path))
        if library is not None:
            return library
        try:
            library = ctypes.CDLL(str(path))
        except OSError:
            if source is None or path.exists():
                raise
            tag = path.stem.rsplit("-", 1)[0]
            path = build_library(source, tag=tag)
            library = ctypes.CDLL(str(path))
        _loaded[str(path)] = library
        return library


class GraphProgram:
    """Native code for one compiled graph.

    Kernels :meth:`register` their renderers while the backend compiles
    nodes; the backend then calls :meth:`build` once, and kernels look
    their entry points up with :meth:`function`. Every entry point takes
    the runtime batch (or row) count as a C ``long`` followed by raw
    buffer pointers.
    """

    def __init__(self, tag: str = "graph"):
        self.tag = tag
        self._renderers: List[object] = []
        self._table: Optional[Dict[tuple, Callable]] = None

    def register(self, renderer) -> None:
        self._renderers.append(renderer)

    @property
    def node_count(self) -> int:
        return len(self._renderers)

    def build(self) -> None:
        """Render, build (or cache-hit) and bind the graph's library."""
        segments: List[CSegment] = [r.render() for r in self._renderers]
        source = render_module(segments, title=self.tag)
        library = load_library(build_library(source, tag=self.tag),
                               source=source)
        table: Dict[tuple, Callable] = {}
        for segment in segments:
            for key, symbol, nargs in segment.functions:
                fn = getattr(library, symbol)
                fn.restype = None
                fn.argtypes = [ctypes.c_long] + [ctypes.c_void_p] * nargs
                table[key] = fn
        self._table = table

    def function(self, key: tuple) -> Optional[Callable]:
        """The entry point bound for ``(node id, role)``, or ``None`` when
        that node rendered no such role."""
        if self._table is None:
            raise CompileError(
                f"native program {self.tag!r} was used before it was built")
        return self._table.get(key)
