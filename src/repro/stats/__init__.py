"""Statistics substrate for Perspector.

Every numerical kernel used by the Perspector metrics lives here and is
implemented from first principles on top of numpy:

* :mod:`repro.stats.distance` -- vector and pairwise distances.
* :mod:`repro.stats.preprocessing` -- normalization and scaling helpers.
* :mod:`repro.stats.kmeans` -- K-means clustering (k-means++ seeding,
  multiple restarts, empty-cluster repair).
* :mod:`repro.stats.silhouette` -- silhouette coefficients (Eq. 1-5 of the
  paper).
* :mod:`repro.stats.pca` -- principal component analysis via SVD with a
  retained-variance cutoff.
* :mod:`repro.stats.dtw` -- dynamic time warping with optional Sakoe-Chiba
  band, including the batched pair kernels.
* :mod:`repro.stats.kstest` -- one- and two-sample Kolmogorov-Smirnov tests,
  including the column-batched one-sample kernel.
* :mod:`repro.stats.backend` -- the one compute dispatch the engine
  routes the DTW / KS hot paths through; its batched kernels are
  bit-identical to the per-pair / per-column loops.
* :mod:`repro.stats.lhs` -- Latin hypercube sampling (plain and maximin).
* :mod:`repro.stats.hierarchical` -- agglomerative clustering, used by the
  prior-work baseline.
* :mod:`repro.stats.descriptive` -- summary statistics and empirical CDFs.

The implementations favour clarity over raw speed, but all hot paths are
vectorized; none of them loops over individual samples in Python except
where the algorithm is inherently sequential (e.g. the DTW recurrence,
which runs over a numpy cost matrix row by row).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.stats.distance": (
        "euclidean", "manhattan", "pairwise_distances", "cdist",
    ),
    "repro.stats.preprocessing": (
        "minmax_normalize", "joint_minmax_normalize", "zscore_normalize",
        "clip_unit_interval",
    ),
    "repro.stats.kmeans": ("KMeans", "KMeansResult", "kmeans"),
    "repro.stats.silhouette": (
        "silhouette_samples", "silhouette_per_cluster", "silhouette_score",
    ),
    "repro.stats.pca": ("PCA", "PCAResult", "pca_fit_transform"),
    "repro.stats.dtw": (
        "dtw_distance", "dtw_path", "dtw_matrix", "batched_pair_distances",
        "banded_pair_distances", "bucketed_pair_distances",
    ),
    "repro.stats.kstest": (
        "ks_statistic_uniform", "ks_statistic_uniform_columns",
        "kolmogorov_sf_batch", "ks_test_uniform", "ks_two_sample", "KSResult",
    ),
    "repro.stats.backend": (
        "ComputeBackend", "kernels", "pair_distances", "ks_columns",
    ),
    "repro.stats.lhs": ("latin_hypercube", "maximin_latin_hypercube"),
    "repro.stats.hierarchical": (
        "HierarchicalClustering", "linkage_matrix", "fcluster_by_count",
    ),
    "repro.stats.descriptive": (
        "empirical_cdf", "percentile_resample", "summary",
        "coefficient_of_variation",
    ),
    "repro.stats.bootstrap": (
        "BootstrapResult", "bootstrap_statistic", "ranking_stability",
    ),
})
