"""Branch predictors.

Dynamic branch instructions and mispredictions are two of the Table IV
events (``branch-instructions``, ``branch-misses``). The workload models
emit streams of ``(site, outcome)`` pairs; these predictors consume the
stream sequentially (prediction state genuinely depends on history, so
this path is a Python loop by necessity) and count mispredictions.
:meth:`_PredictorBase.predict_and_update` is the per-branch reference
model; :meth:`_PredictorBase.run_trace` hands a whole stream to one
batch loop per predictor class (``_run_batch``), bit-identical to it.

Predictors
----------
* :class:`StaticTakenPredictor` -- always predicts taken (baseline).
* :class:`BimodalPredictor` -- per-site 2-bit saturating counters.
* :class:`GSharePredictor` -- 2-bit counters indexed by PC xor global
  history.
* :class:`TournamentPredictor` -- bimodal + gshare with a per-site 2-bit
  chooser (the default; closest to the Coffee Lake TAGE-ish behaviour at
  this level of abstraction).
"""

from __future__ import annotations

import numpy as np

from repro.uarch.cache import CHUNK
from repro.uarch.config import BranchConfig

_WEAKLY_TAKEN = 2  # 2-bit counter states: 0,1 predict NT; 2,3 predict T.


class _PredictorBase:
    """Common counting shell. Subclasses implement ``_predict_update``
    (one branch, the reference) and ``_run_batch`` (a chunk of the
    stream, returning its mispredicts), which must agree bit for bit."""

    def __init__(self):
        self.branches = 0
        self.mispredicts = 0

    @property
    def mispredict_rate(self):
        if self.branches == 0:
            return 0.0
        return self.mispredicts / self.branches

    def predict_and_update(self, site, taken):
        """Predict one branch, update state, return the prediction."""
        prediction = self._predict_update(int(site), bool(taken))
        self.branches += 1
        if prediction != bool(taken):
            self.mispredicts += 1
        return prediction

    def run_trace(self, sites, outcomes):
        """Run a full ``(site, outcome)`` stream; returns mispredict delta."""
        sites = np.asarray(sites)
        outcomes = np.asarray(outcomes, dtype=bool)
        if sites.shape[0] != outcomes.shape[0]:
            raise ValueError(
                f"sites length {sites.shape[0]} != outcomes length "
                f"{outcomes.shape[0]}"
            )
        n = sites.shape[0]
        mispredicts = 0
        for start in range(0, n, CHUNK):
            mispredicts += self._run_batch(sites[start:start + CHUNK],
                                           outcomes[start:start + CHUNK])
        self.branches += n
        self.mispredicts += mispredicts
        return mispredicts


class StaticTakenPredictor(_PredictorBase):
    """Always predicts taken."""

    def _predict_update(self, site, taken):
        return True

    def _run_batch(self, sites, taken):
        return taken.shape[0] - int(np.count_nonzero(taken))


class BimodalPredictor(_PredictorBase):
    """Per-site table of 2-bit saturating counters."""

    def __init__(self, table_bits=12):
        super().__init__()
        if not (1 <= table_bits <= 24):
            raise ValueError(f"table_bits out of range: {table_bits}")
        self._mask = (1 << table_bits) - 1
        self._table = [_WEAKLY_TAKEN] * (1 << table_bits)

    def _predict_update(self, site, taken):
        idx = site & self._mask
        counter = self._table[idx]
        prediction = counter >= _WEAKLY_TAKEN
        if taken:
            if counter < 3:
                self._table[idx] = counter + 1
        elif counter > 0:
            self._table[idx] = counter - 1
        return prediction

    def _run_batch(self, sites, taken):
        table = self._table
        mispredicts = 0
        for idx, t in zip((sites & self._mask).tolist(), taken.tolist()):
            counter = table[idx]
            if t:
                if counter < _WEAKLY_TAKEN:
                    mispredicts += 1
                if counter < 3:
                    table[idx] = counter + 1
            else:
                if counter >= _WEAKLY_TAKEN:
                    mispredicts += 1
                if counter > 0:
                    table[idx] = counter - 1
        return mispredicts


class GSharePredictor(_PredictorBase):
    """Global-history xor PC indexed 2-bit counters."""

    def __init__(self, table_bits=12, history_bits=12):
        super().__init__()
        if not (1 <= table_bits <= 24):
            raise ValueError(f"table_bits out of range: {table_bits}")
        if not (0 <= history_bits <= table_bits):
            raise ValueError(
                f"history_bits must be in [0, {table_bits}], got {history_bits}"
            )
        self._mask = (1 << table_bits) - 1
        self._history_mask = (1 << history_bits) - 1
        self._table = [_WEAKLY_TAKEN] * (1 << table_bits)
        self._history = 0

    def _predict_update(self, site, taken):
        idx = (site ^ self._history) & self._mask
        counter = self._table[idx]
        prediction = counter >= _WEAKLY_TAKEN
        if taken:
            if counter < 3:
                self._table[idx] = counter + 1
        elif counter > 0:
            self._table[idx] = counter - 1
        self._history = ((self._history << 1) | int(taken)) & self._history_mask
        return prediction

    def _run_batch(self, sites, taken):
        table, mask = self._table, self._mask
        history, history_mask = self._history, self._history_mask
        mispredicts = 0
        for site, t in zip(sites.tolist(), taken.tolist()):
            idx = (site ^ history) & mask
            counter = table[idx]
            if t:
                if counter < _WEAKLY_TAKEN:
                    mispredicts += 1
                if counter < 3:
                    table[idx] = counter + 1
            else:
                if counter >= _WEAKLY_TAKEN:
                    mispredicts += 1
                if counter > 0:
                    table[idx] = counter - 1
            history = ((history << 1) | t) & history_mask
        self._history = history
        return mispredicts


class TournamentPredictor(_PredictorBase):
    """Bimodal/gshare hybrid with a per-site 2-bit chooser.

    The chooser counter moves toward whichever component predicted the
    branch correctly when they disagree (>=2 selects gshare).
    """

    def __init__(self, table_bits=12, history_bits=12):
        super().__init__()
        self._bimodal = BimodalPredictor(table_bits)
        self._gshare = GSharePredictor(table_bits, history_bits)
        self._mask = (1 << table_bits) - 1
        self._chooser = [_WEAKLY_TAKEN] * (1 << table_bits)

    def _predict_update(self, site, taken):
        p_bim = self._bimodal._predict_update(site, taken)
        p_gsh = self._gshare._predict_update(site, taken)
        idx = site & self._mask
        choice = self._chooser[idx]
        prediction = p_gsh if choice >= _WEAKLY_TAKEN else p_bim
        if p_bim != p_gsh:
            if p_gsh == taken:
                if choice < 3:
                    self._chooser[idx] = choice + 1
            elif choice > 0:
                self._chooser[idx] = choice - 1
        return prediction

    def _run_batch(self, sites, taken):
        """Bimodal, gshare and chooser updates inlined; the components'
        own ``branches``/``mispredicts`` stay untouched, as in
        :meth:`_predict_update`."""
        bimodal, gshare = self._bimodal._table, self._gshare._table
        chooser, mask = self._chooser, self._mask
        history = self._gshare._history
        history_mask = self._gshare._history_mask
        mispredicts = 0
        for site, idx, t in zip(sites.tolist(), (sites & mask).tolist(),
                                taken.tolist()):
            counter = bimodal[idx]
            p_bim = counter >= _WEAKLY_TAKEN
            if t:
                if counter < 3:
                    bimodal[idx] = counter + 1
            elif counter > 0:
                bimodal[idx] = counter - 1
            g_idx = (site ^ history) & mask
            counter = gshare[g_idx]
            p_gsh = counter >= _WEAKLY_TAKEN
            if t:
                if counter < 3:
                    gshare[g_idx] = counter + 1
            elif counter > 0:
                gshare[g_idx] = counter - 1
            history = ((history << 1) | t) & history_mask
            choice = chooser[idx]
            if (p_gsh if choice >= _WEAKLY_TAKEN else p_bim) != t:
                mispredicts += 1
            if p_bim != p_gsh:
                if p_gsh == t:
                    if choice < 3:
                        chooser[idx] = choice + 1
                elif choice > 0:
                    chooser[idx] = choice - 1
        self._gshare._history = history
        return mispredicts


def make_predictor(config: BranchConfig):
    """Build the predictor described by a :class:`BranchConfig`."""
    if config.kind == "static":
        return StaticTakenPredictor()
    if config.kind == "bimodal":
        return BimodalPredictor(config.table_bits)
    if config.kind == "gshare":
        return GSharePredictor(config.table_bits, config.history_bits)
    return TournamentPredictor(config.table_bits, config.history_bits)
