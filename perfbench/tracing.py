"""Span tracer for the benchmark's traced run.

The tracer wraps the public entry points of each ``repro`` layer from the
benchmark's own files, so nothing under ``src/`` carries a span or a
counter.  One span is recorded per call (and, for generator functions, per
resume): name, wall start/end, virtual start/end, parent span and the
transaction id shared by every span of one transaction attempt.  Spans are
kept in memory in typed arrays and written out when the run ends.

Self time is a span's duration minus the part covered by its child spans,
accumulated per span name as spans close, so the per-layer self times of a
traced section add up to its wall time (minus the tracer's own gaps).

Patches are applied to classes, not instances: the engine binds CC hook
methods into its per-type ``Route`` tables when it is built, so the tracer
must be installed before the runner is constructed.  ``uninstall`` (or
leaving the ``with`` block) restores every patched attribute.
"""

import json
import time
import types
from array import array

from repro.cc.base import CC_REGISTRY, ConcurrencyControl
from repro.cc.locks import LockTable
from repro.core.engine import TebaldiEngine
from repro.errors import TransactionAborted
from repro.harness.runner import BenchmarkRunner
from repro.isolation.history import HistoryRecorder
from repro.isolation.streaming import StreamingDSGChecker
from repro.sim.environment import Environment
from repro.storage.durability import DurabilityManager
from repro.storage.gc import GarbageCollector
from repro.storage.mvstore import MultiVersionStore

#: CC hooks timed per mechanism ("start" ... "finish" of the four-phase protocol).
CC_HOOKS = (
    "admit",
    "start",
    "before_read",
    "before_update_read",
    "before_write",
    "before_scan",
    "select_version",
    "amend_read",
    "after_write",
    "validate",
    "pre_commit",
    "finish",
)
#: Hooks the engine calls on every CC of a path whether or not it overrides
#: them; every other hook is only wrapped where a mechanism overrides it, so
#: wrapping never changes which hooks land in the engine's Route tables.
_ALWAYS_CALLED = ("validate", "select_version")

_perf_counter = time.perf_counter
_GENERATOR = types.GeneratorType

#: Span columns of the trace file, in file order, with their array typecodes.
SPAN_COLUMNS = (
    ("name", "I"),
    ("wall_start", "d"),
    ("wall_end", "d"),
    ("virt_start", "d"),
    ("virt_end", "d"),
    ("parent", "q"),
    ("txn", "q"),
)


def _txn_at(position):
    """Extractor of the transaction id from positional argument ``position``."""

    def extract(args):
        if len(args) > position:
            return getattr(args[position], "txn_id", -1)
        return -1

    return extract


def _id_at(position):
    def extract(args):
        return args[position] if len(args) > position else -1

    return extract


class Tracer:
    """Records spans at layer boundaries and aggregates them per name."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.calls = []
        self.self_s = []
        self.total_s = []
        self.wait_virtual_s = []
        self.aborts = []
        self.counters = {
            "locks.requests": 0,
            "locks.blocked": 0,
            "scan.keys": 0,
            "scan.rows": 0,
        }
        # Span columns, indexed by span number.
        self._name = array("I")
        self._wall0 = array("d")
        self._wall1 = array("d")
        self._virt0 = array("d")
        self._virt1 = array("d")
        self._parent = array("q")
        self._txn = array("q")
        # Open spans: [span index, child wall time, txn id, generator state].
        self._stack = []
        self._env = None
        self._patches = []

    # -- span bookkeeping -------------------------------------------------------

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.wait_virtual_s.append(0.0)
            self.aborts.append(0)
        return nid

    def now(self):
        env = self._env
        return env._now if env is not None else 0.0

    def _open(self, nid, txn, gen_state=None):
        stack = self._stack
        if stack:
            top = stack[-1]
            parent = top[0]
            if txn < 0:
                txn = top[2]
        else:
            parent = -1
        index = len(self._name)
        self._name.append(nid)
        self._parent.append(parent)
        self._txn.append(txn)
        virt = self.now()
        self._virt0.append(virt)
        self._virt1.append(virt)
        self._wall1.append(0.0)
        entry = [index, 0.0, txn, gen_state]
        stack.append(entry)
        self._wall0.append(_perf_counter())
        return entry

    def _close(self, entry):
        end = _perf_counter()
        stack = self._stack
        stack.pop()
        index = entry[0]
        duration = end - self._wall0[index]
        self._wall1[index] = end
        self._virt1[index] = self.now()
        nid = self._name[index]
        self.self_s[nid] += duration - entry[1]
        self.total_s[nid] += duration
        if stack:
            stack[-1][1] += duration

    @property
    def span_count(self):
        return len(self._name)

    # -- wrappers ---------------------------------------------------------------------

    def _resumes(self, gen, nid, txn, virt_start, on_result=None):
        """Drive ``gen`` and record one span per resume.

        Exceptions thrown into the wrapper (by the simulator or an enclosing
        ``yield from``) are forwarded into ``gen``; closing the wrapper
        closes ``gen``.
        """
        state = [txn]
        send_value = None
        thrown = None
        while True:
            entry = self._open(nid, state[0], state)
            try:
                if thrown is not None:
                    exc, thrown = thrown, None
                    item = gen.throw(exc)
                else:
                    item = gen.send(send_value)
            except StopIteration as stop:
                self._close(entry)
                self.wait_virtual_s[nid] += self.now() - virt_start
                if on_result is not None:
                    on_result(stop.value)
                return stop.value
            except TransactionAborted:
                self._close(entry)
                self.aborts[nid] += 1
                self.wait_virtual_s[nid] += self.now() - virt_start
                raise
            except BaseException:
                self._close(entry)
                raise
            self._close(entry)
            try:
                send_value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded into gen
                thrown = exc
                send_value = None

    def wrap_call(self, fn, name, txn_of=None, on_result=None):
        """Time a plain function; a generator it returns is timed per resume."""
        nid = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[nid] += 1
            txn = txn_of(args) if txn_of is not None else -1
            virt_start = tracer.now()
            entry = tracer._open(nid, txn)
            try:
                result = fn(*args, **kwargs)
            except TransactionAborted:
                tracer.aborts[nid] += 1
                raise
            finally:
                tracer._close(entry)
            if type(result) is _GENERATOR:
                return tracer._resumes(result, nid, entry[2], virt_start)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn, name, txn_of=None, on_result=None):
        """Time a generator function per resume; calls count invocations."""
        nid = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[nid] += 1
            txn = txn_of(args) if txn_of is not None else -1
            return tracer._resumes(fn(*args, **kwargs), nid, txn, tracer.now(), on_result)

        traced.__wrapped__ = fn
        return traced

    # -- special boundaries ------------------------------------------------------------

    def _wrap_env_run(self, fn):
        traced = self.wrap_call(fn, "sim")
        tracer = self

        def run(env, until=None):
            tracer._env = env
            return traced(env, until)

        run.__wrapped__ = fn
        return run

    def _wrap_begin(self, fn):
        traced = self.wrap_call(fn, "core.begin", txn_of=None)
        stack = self._stack
        txn_column = self._txn

        def begin(*args, **kwargs):
            txn = traced(*args, **kwargs)
            # The enclosing execute_transaction span learns its transaction
            # id here; its later resumes carry it too.
            if stack:
                top = stack[-1]
                top[2] = txn.txn_id
                txn_column[top[0]] = txn.txn_id
                if top[3] is not None:
                    top[3][0] = txn.txn_id
            return txn

        begin.__wrapped__ = fn
        return begin

    def _wrap_lock_request(self, fn):
        counters = self.counters

        def request(*args, **kwargs):
            wait = fn(*args, **kwargs)
            counters["locks.requests"] += 1
            if wait is not None:
                counters["locks.blocked"] += 1
            return wait

        request.__wrapped__ = fn
        return request

    def _count_scan_keys(self, keys):
        self.counters["scan.keys"] += len(keys)

    def _count_scan_rows(self, rows):
        self.counters["scan.rows"] += len(rows)

    # -- installation -------------------------------------------------------------------

    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, owner.__dict__.get(attribute)))
        setattr(owner, attribute, replacement)

    def install(self, workload_class):
        """Wrap every traced boundary; call before building the runner."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        txn1 = _txn_at(1)
        # (owner, attribute, span name, txn id extractor, result callback)
        plain = [
            (TebaldiEngine, "depends_transitively", "core.depends_transitively", None, None),
            (MultiVersionStore, "install", "storage.mvstore.install", _txn_at(3), None),
            (MultiVersionStore, "commit_transaction", "storage.mvstore.commit_transaction",
             txn1, None),
            (MultiVersionStore, "abort_transaction", "storage.mvstore.abort_transaction",
             txn1, None),
            (MultiVersionStore, "latest_committed_before",
             "storage.mvstore.latest_committed_before", None, None),
            (MultiVersionStore, "latest_committed", "storage.mvstore.latest_committed",
             None, None),
            (MultiVersionStore, "own_uncommitted", "storage.mvstore.own_uncommitted", None, None),
            (MultiVersionStore, "uncommitted_map", "storage.mvstore.uncommitted_map", None, None),
            (MultiVersionStore, "range_keys", "storage.mvstore.range_keys", None,
             self._count_scan_keys),
            (MultiVersionStore, "load", "storage.load", None, None),
            (GarbageCollector, "collect", "storage.gc.collect", None, None),
            (DurabilityManager, "precommit", "storage.durability.precommit", txn1, None),
            (DurabilityManager, "log_operation", "storage.durability.log_operation", txn1, None),
            (DurabilityManager, "advance_gcp_epoch", "storage.durability.advance_gcp_epoch",
             None, None),
            (DurabilityManager, "recover", "storage.durability.recover", None, None),
            (HistoryRecorder, "on_commit", "isolation.recorder.on_commit", txn1, None),
            (StreamingDSGChecker, "on_commit", "isolation.dsg.on_commit", _id_at(1), None),
            (BenchmarkRunner, "check_isolation", "isolation.verdict", None, None),
            (BenchmarkRunner, "__init__", "harness.runner_init", None, None),
            (workload_class, "next_transaction", "workloads.next_transaction", None, None),
            (workload_class, "populate", "workloads.populate", None, None),
        ]
        generators = [
            (TebaldiEngine, "execute_transaction", "core.txn", None, None),
            (TebaldiEngine, "perform_read", "core.read", txn1, None),
            (TebaldiEngine, "perform_write", "core.write", txn1, None),
            (TebaldiEngine, "perform_scan", "core.scan", txn1, self._count_scan_rows),
            (TebaldiEngine, "wait_for_transactions", "core.wait", txn1, None),
        ]
        # Resolve every original before patching anything, so a class that
        # inherits a hook from another patched class wraps the original.
        hooks = []
        for cls in sorted(set(CC_REGISTRY.values()), key=lambda c: c.name):
            for hook in CC_HOOKS:
                original = getattr(cls, hook)
                if original is getattr(ConcurrencyControl, hook) and hook not in _ALWAYS_CALLED:
                    continue
                hooks.append((cls, hook, self.wrap_call(original, f"cc.{cls.name}.{hook}", txn1)))
        replacements = hooks + [
            (owner, attr, self.wrap_call(getattr(owner, attr), name, txn_of, on_result))
            for owner, attr, name, txn_of, on_result in plain
        ] + [
            (owner, attr, self.wrap_generator(getattr(owner, attr), name, txn_of, on_result))
            for owner, attr, name, txn_of, on_result in generators
        ] + [
            (Environment, "run", self._wrap_env_run(Environment.run)),
            (TebaldiEngine, "begin", self._wrap_begin(TebaldiEngine.begin)),
            (LockTable, "request", self._wrap_lock_request(LockTable.request)),
        ]
        for owner, attr, replacement in replacements:
            self._patch(owner, attr, replacement)
        return self

    def uninstall(self):
        """Restore every patched attribute (in reverse patch order)."""
        while self._patches:
            owner, attribute, previous = self._patches.pop()
            if previous is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, previous)
        self._env = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.uninstall()
        return False

    # -- aggregation and output ------------------------------------------------------

    def stat(self, column, name):
        """``column`` ("calls", "self_s", ...) of the span named ``name``."""
        nid = self._name_ids.get(name)
        return getattr(self, column)[nid] if nid is not None else 0

    def stat_prefix(self, column, prefix):
        """``column`` summed over every span name starting with ``prefix``."""
        values = getattr(self, column)
        return sum(value for name, value in zip(self.names, values) if name.startswith(prefix))

    def total_self_s(self):
        return sum(self.self_s)

    def write(self, path):
        """Write the spans: a JSON header line, then each column's raw array.

        Column ``i`` holds ``spans`` items of the typecode the header names,
        in machine byte order (``array.fromfile`` reads them back).
        """
        columns = (self._name, self._wall0, self._wall1, self._virt0,
                   self._virt1, self._parent, self._txn)
        header = {
            "columns": [list(column) for column in SPAN_COLUMNS],
            "names": self.names,
            "spans": self.span_count,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in columns:
                column.tofile(handle)
        return path
