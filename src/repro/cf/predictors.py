"""Single-user rating predictors (the ``apref(u, i)`` substrate).

The paper's group model takes *absolute preferences* ``apref(u, i)`` from any
single-user recommendation algorithm; its experiments use user-based
collaborative filtering with cosine similarity.  This module implements:

* :class:`UserBasedCF` — k-nearest-neighbour user-based CF (the paper's
  choice), with mean-centred weighted aggregation.
* :class:`ItemBasedCF` — the classic item-based variant, useful as an
  alternative ``apref`` source.
* :class:`MeanPredictor` — a trivial baseline (item mean, falling back to
  user mean / global mean), handy in tests.

Every predictor exposes the same interface: ``fit(dataset)`` and
``predict(user_id, item_id) -> float`` in the original 1-5 rating scale, plus
``predict_all(user_id)`` returning predictions for every item.  Predictions
for items a user already rated return the observed rating, as is customary
when the predictor feeds a recommender that excludes already-rated items at a
later stage.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.cf.matrix import RatingMatrix
from repro.cf.similarity import CosineState, similarity_matrix
from repro.data.ratings import MAX_RATING, MIN_RATING, RatingsDataset
from repro.exceptions import AlgorithmError, ConfigurationError


class RatingPredictor(abc.ABC):
    """Interface of all ``apref`` providers."""

    def __init__(self) -> None:
        self._matrix: RatingMatrix | None = None

    @property
    def matrix(self) -> RatingMatrix:
        """The fitted rating matrix."""
        if self._matrix is None:
            raise AlgorithmError("predictor is not fitted; call fit() first")
        return self._matrix

    @property
    def is_fitted(self) -> bool:
        """``True`` once :meth:`fit` has been called."""
        return self._matrix is not None

    def fit(self, dataset: RatingsDataset) -> "RatingPredictor":
        """Fit the predictor on a ratings dataset and return ``self``."""
        self._matrix = RatingMatrix(dataset)
        self._fit(self._matrix)
        return self

    @abc.abstractmethod
    def _fit(self, matrix: RatingMatrix) -> None:
        """Model-specific fitting using the dense matrix."""

    @abc.abstractmethod
    def predict(self, user_id: int, item_id: int) -> float:
        """Predicted rating of ``user_id`` for ``item_id`` in [1, 5]."""

    def predict_all(self, user_id: int) -> dict[int, float]:
        """Predictions for every item in the dataset."""
        return {item: self.predict(user_id, item) for item in self.matrix.items}

    def predict_for_items(self, user_id: int, items) -> dict[int, float]:
        """Predictions for a subset of items.

        The default delegates to :meth:`predict`, which every subclass keeps
        consistent with :meth:`predict_all`; :class:`UserBasedCF` overrides
        this with the batched kernel of its :meth:`predict_all`, so partial
        apref-cache patching is bit-identical to the full recomputation.
        """
        return {item: self.predict(user_id, item) for item in items}

    def partial_refit(self, touched_users) -> None:
        """Refresh model state after in-place cell updates on the fitted matrix.

        ``touched_users`` are the ids whose rating rows changed.  The default
        simply re-runs :meth:`_fit` on the (already updated) matrix — always
        correct; subclasses override to skip work that is bit-stable under a
        row-subset refresh.
        """
        self._fit(self.matrix)

    def stale_prediction_items(self, touched_users) -> tuple[int, ...]:
        """Items whose predictions may have changed for *untouched* users.

        The conservative default declares every item stale.  Subclasses with
        a provably narrower footprint (see :class:`UserBasedCF`) override.
        """
        return self.matrix.items

    def patchable_users(self, users) -> set[int]:
        """Subset of ``users`` whose cached predictions can be patched item-wise.

        A user is patchable when refreshing only :meth:`stale_prediction_items`
        reproduces a full :meth:`predict_all` bit-for-bit.  The conservative
        default patches no one (callers fall back to a full recomputation per
        user); :class:`UserBasedCF` overrides.
        """
        return set()

    @staticmethod
    def _clip(value: float) -> float:
        """Clip a raw prediction into the valid rating range."""
        return float(min(MAX_RATING, max(MIN_RATING, value)))


class MeanPredictor(RatingPredictor):
    """Predict the item mean, falling back to the user mean then to 3.0."""

    def _fit(self, matrix: RatingMatrix) -> None:
        self._item_means = matrix.item_means()
        self._user_means = matrix.user_means()
        rated = matrix.values[matrix.rated_mask()]
        self._global_mean = float(rated.mean()) if rated.size else 3.0

    def predict(self, user_id: int, item_id: int) -> float:
        matrix = self.matrix
        observed = matrix.rating(user_id, item_id)
        if observed > 0:
            return observed
        item_mean = self._item_means[matrix.item_position(item_id)]
        if item_mean > 0:
            return self._clip(item_mean)
        user_mean = self._user_means[matrix.user_position(user_id)]
        if user_mean > 0:
            return self._clip(user_mean)
        return self._clip(self._global_mean)


class UserBasedCF(RatingPredictor):
    """k-NN user-based collaborative filtering with cosine similarity.

    Prediction follows the standard mean-centred formulation:

    ``apref(u, i) = mean(u) + sum_v sim(u, v) * (r(v, i) - mean(v)) / sum_v |sim(u, v)|``

    where the sum ranges over the ``k`` most similar users who rated ``i``.

    :meth:`predict_all` and :meth:`predict_for_items` run one batched kernel
    (:meth:`_predict_columns`) that is bit-identical to the per-cell path
    :meth:`predict` takes (:meth:`_raw_prediction`).

    Parameters
    ----------
    k_neighbors:
        Neighbourhood size (``None`` means all users).
    metric:
        Similarity metric name (``cosine``, ``pearson`` or ``jaccard``).
    min_similarity:
        Neighbours with similarity below this threshold are ignored.
    """

    def __init__(
        self,
        k_neighbors: int | None = 40,
        metric: str = "cosine",
        min_similarity: float = 0.0,
    ) -> None:
        super().__init__()
        if k_neighbors is not None and k_neighbors <= 0:
            raise ConfigurationError("k_neighbors must be positive or None")
        self.k_neighbors = k_neighbors
        self.metric = metric
        self.min_similarity = min_similarity

    def _fit(self, matrix: RatingMatrix) -> None:
        if self.metric == "cosine":
            # Keep the cosine state (row norms + normalised rows) so a delta
            # can refresh only the touched rows; the gemm itself is redone in
            # full each time because a row-subset product is not bit-stable.
            self._cosine_state = CosineState(matrix.values)
            self._similarity = self._cosine_state.similarity()
        else:
            self._cosine_state = None
            self._similarity = similarity_matrix(matrix, metric=self.metric, axis="user")
        np.fill_diagonal(self._similarity, 0.0)
        self._refresh_means(matrix)

    def _refresh_means(self, matrix: RatingMatrix) -> None:
        """Means, the global mean and the per-item rater index of ``matrix``.

        The rater index is the rated mask in item-major (CSC) form: the
        raters of column ``c`` are ``_raters[_rater_ptr[c]:_rater_ptr[c + 1]]``
        in ascending user order, and ``_centred`` holds each of those
        ratings minus its rater's mean.  Deltas write ratings in place, so
        :meth:`partial_refit` rebuilds it along with the means.
        """
        values = matrix.values
        self._user_means = matrix.user_means()
        rated = values[matrix.rated_mask()]
        self._global_mean = float(rated.mean()) if rated.size else 3.0
        cols, users = np.nonzero(values.T > 0)
        counts = np.bincount(cols, minlength=values.shape[1])
        self._rater_ptr = np.concatenate(([0], np.cumsum(counts)))
        self._raters = users
        self._centred = values[users, cols] - self._user_means[users]

    def partial_refit(self, touched_users) -> None:
        """Refresh after in-place row updates, reusing untouched cosine rows.

        Bit-identical to a fresh :meth:`_fit` on the updated matrix: per-row
        norms and the row-wise division are bit-stable under subsetting, and
        the similarity gemm, means and global mean are recomputed through the
        exact full-fit code paths.
        """
        matrix = self.matrix
        state = getattr(self, "_cosine_state", None)
        if state is None or state.vectors is not matrix.values:
            self._fit(matrix)
            return
        state.refresh_rows(matrix.user_position(user) for user in touched_users)
        self._similarity = state.similarity()
        np.fill_diagonal(self._similarity, 0.0)
        self._refresh_means(matrix)

    def stale_prediction_items(self, touched_users) -> tuple[int, ...]:
        """Items whose predictions may differ for users *not* in ``touched_users``.

        For an untouched user ``u`` with a positive mean, ``predict(u, i)``
        reads: ``u``'s similarity to the raters of ``i``, those raters'
        ratings of ``i`` and their means.  Unless a touched user rates ``i``
        (post-update), every one of those inputs is bit-unchanged — unchanged
        pairs of the recomputed similarity gemm are bit-stable — so only the
        items rated by a touched user can move.
        """
        matrix = self.matrix
        stale: set[int] = set()
        for user in touched_users:
            row = matrix.values[matrix.user_position(user)]
            for col in np.flatnonzero(row > 0):
                stale.add(matrix.items[int(col)])
        return tuple(sorted(stale))

    def patchable_users(self, users) -> set[int]:
        """Users with a positive (post-update) mean: their baseline is their
        own mean, not the global mean that moves with every delta, so only
        the stale items can change for them."""
        matrix = self.matrix
        return {
            user
            for user in users
            if self._user_means[matrix.user_position(user)] > 0
        }

    def predict(self, user_id: int, item_id: int) -> float:
        """One cell through the per-cell path, clipped like :meth:`predict_all`."""
        matrix = self.matrix
        row = matrix.user_position(user_id)
        col = matrix.item_position(item_id)
        similarities, baseline = self._prediction_inputs(row)
        raw = self._raw_prediction(row, col, similarities, baseline)
        return float(np.clip(raw, MIN_RATING, MAX_RATING))

    def _prediction_inputs(self, row: int) -> tuple[np.ndarray, float]:
        """One user's similarity row after the ``min_similarity`` cut, and baseline."""
        baseline = self._user_means[row] if self._user_means[row] > 0 else self._global_mean
        similarities = self._similarity[row].copy()
        similarities[similarities <= self.min_similarity] = 0.0
        return similarities, baseline

    def _raw_prediction(self, row, col, similarities, baseline) -> float:
        """Unclipped prediction for one cell: the per-cell reference path.

        The batched kernel (:meth:`_predict_columns`) reproduces exactly this
        arithmetic — same neighbours, same summation order — and falls back
        to it for the cells whose neighbour order argsort does not fix.
        """
        values = self.matrix.values
        observed = values[row, col]
        if observed > 0:
            return float(observed)
        raters = self._raters[self._rater_ptr[col] : self._rater_ptr[col + 1]]
        sims = similarities[raters]
        keep = sims > 0
        raters = raters[keep]
        sims = sims[keep]
        if raters.size == 0:
            return float(baseline)
        if self.k_neighbors is not None and raters.size > self.k_neighbors:
            order = np.argsort(-sims)[: self.k_neighbors]
            raters = raters[order]
            sims = sims[order]
        centred = values[raters, col] - self._user_means[raters]
        denominator = float(np.sum(np.abs(sims)))
        if denominator > 0:
            return float(baseline) + float(np.sum(sims * centred)) / denominator
        return float(baseline)

    def _predict_columns(self, row: int, cols: np.ndarray) -> np.ndarray:
        """Clipped predictions of one user for the item columns ``cols``.

        Bit-identical to :meth:`_raw_prediction` per cell.  A cell's
        neighbours are its raters with a positive (cut) similarity: all of
        them in ascending user order when there are at most ``k_neighbors``,
        else the ``k_neighbors`` most similar in descending-similarity order —
        the orders the per-cell path sums in.  Cells with ``n`` neighbours
        are gathered into one C-contiguous ``(cells, n)`` block, and
        ``np.sum(block, axis=1)`` reduces each row with the same pairwise
        routine as the per-cell 1-D ``np.sum``.  When two positive
        similarities tie, argsort's order among them is not fixed by value,
        so that user's cells with more than ``k_neighbors`` neighbours go
        through the per-cell path instead.
        """
        similarities, baseline = self._prediction_inputs(row)
        observed = self.matrix.values[row, cols]
        raw = np.where(observed > 0, observed, float(baseline))

        # The requested columns' rater entries, concatenated column by column.
        starts = self._rater_ptr[cols]
        lengths = self._rater_ptr[cols + 1] - starts
        entries = _concatenated_ranges(starts, lengths)
        bounds = np.concatenate(([0], np.cumsum(lengths)))
        raters = self._raters[entries]
        sims = similarities[raters]
        keep = sims > 0
        kept = np.concatenate(([0], np.cumsum(keep)))
        counts = kept[bounds[1:]] - kept[bounds[:-1]]
        first = kept[bounds[:-1]]
        raters = raters[keep]
        sims = sims[keep]
        centred = self._centred[entries[keep]]

        open_cells = (observed <= 0) & (counts > 0)
        k = self.k_neighbors
        many = open_cells & (counts > k) if k is not None else np.zeros_like(open_cells)
        few = np.flatnonzero(open_cells & ~many)
        few = few[np.argsort(counts[few], kind="stable")]
        splits = np.flatnonzero(np.diff(counts[few])) + 1
        for cells in np.split(few, splits) if few.size else ():
            positions = first[cells][:, None] + np.arange(counts[cells[0]])
            raw[cells] = _weighted_offsets(sims[positions], centred[positions], baseline)

        many = np.flatnonzero(many)
        if many.size:
            positive = np.sort(similarities[similarities > 0])
            if np.any(positive[1:] == positive[:-1]):
                for cell in many:
                    raw[cell] = self._raw_prediction(row, int(cols[cell]), similarities, baseline)
            else:
                rank = np.empty(similarities.size, dtype=np.int64)
                rank[np.argsort(-similarities, kind="stable")] = np.arange(similarities.size)
                # Each cell's neighbours, most similar first; keep the first k.
                sizes = counts[many]
                spans = _concatenated_ranges(first[many], sizes)
                owner = np.repeat(np.arange(many.size), sizes)
                spans = spans[np.argsort(owner * similarities.size + rank[raters[spans]])]
                positions = spans[(np.cumsum(sizes) - sizes)[:, None] + np.arange(k)]
                raw[many] = _weighted_offsets(sims[positions], centred[positions], baseline)
        return np.clip(raw, MIN_RATING, MAX_RATING)

    def predict_all(self, user_id: int) -> dict[int, float]:
        """Batched exact prediction of every item for one user."""
        matrix = self.matrix
        row = matrix.user_position(user_id)
        predictions = self._predict_columns(row, np.arange(len(matrix.items)))
        return dict(zip(matrix.items, predictions.tolist()))

    def predict_for_items(self, user_id: int, items) -> dict[int, float]:
        """Predictions for a subset of items, bit-identical to the same
        entries of :meth:`predict_all` (the same kernel on those columns)."""
        matrix = self.matrix
        items = list(items)
        row = matrix.user_position(user_id)
        cols = np.asarray([matrix.item_position(item) for item in items], dtype=np.intp)
        return dict(zip(items, self._predict_columns(row, cols).tolist()))


def _concatenated_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``range(start, start + length)`` for every pair, concatenated in order."""
    offsets = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum())) + np.repeat(starts - offsets, lengths)


def _weighted_offsets(sims: np.ndarray, centred: np.ndarray, baseline) -> np.ndarray:
    """``baseline + sum(sims * centred) / sum(|sims|)`` per row of a neighbour block."""
    numerator = np.sum(sims * centred, axis=1)
    denominator = np.sum(np.abs(sims), axis=1)
    result = np.full(len(sims), float(baseline))
    positive = denominator > 0
    result[positive] = float(baseline) + numerator[positive] / denominator[positive]
    return result


class ItemBasedCF(RatingPredictor):
    """k-NN item-based collaborative filtering.

    ``apref(u, i)`` is the similarity-weighted average of the user's ratings
    on the items most similar to ``i``.
    """

    def __init__(self, k_neighbors: int | None = 40, metric: str = "cosine") -> None:
        super().__init__()
        if k_neighbors is not None and k_neighbors <= 0:
            raise ConfigurationError("k_neighbors must be positive or None")
        self.k_neighbors = k_neighbors
        self.metric = metric

    def _fit(self, matrix: RatingMatrix) -> None:
        self._similarity = similarity_matrix(matrix, metric=self.metric, axis="item")
        np.fill_diagonal(self._similarity, 0.0)
        self._item_means = matrix.item_means()
        rated = matrix.values[matrix.rated_mask()]
        self._global_mean = float(rated.mean()) if rated.size else 3.0

    def predict(self, user_id: int, item_id: int) -> float:
        matrix = self.matrix
        observed = matrix.rating(user_id, item_id)
        if observed > 0:
            return observed

        row = matrix.user_position(user_id)
        col = matrix.item_position(item_id)
        rated_cols = np.flatnonzero(matrix.values[row] > 0)
        if rated_cols.size == 0:
            fallback = self._item_means[col] if self._item_means[col] > 0 else self._global_mean
            return self._clip(fallback)

        similarities = self._similarity[col, rated_cols]
        keep = similarities > 0
        rated_cols = rated_cols[keep]
        similarities = similarities[keep]
        if rated_cols.size == 0:
            fallback = self._item_means[col] if self._item_means[col] > 0 else self._global_mean
            return self._clip(fallback)

        if self.k_neighbors is not None and rated_cols.size > self.k_neighbors:
            order = np.argsort(-similarities)[: self.k_neighbors]
            rated_cols = rated_cols[order]
            similarities = similarities[order]

        ratings = matrix.values[row, rated_cols]
        denominator = float(np.sum(np.abs(similarities)))
        if denominator == 0:
            fallback = self._item_means[col] if self._item_means[col] > 0 else self._global_mean
            return self._clip(fallback)
        return self._clip(float(np.sum(similarities * ratings)) / denominator)
