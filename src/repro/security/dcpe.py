"""Distance-comparison-preserving encryption (DCPE) for secure k-NN.

§2.6(4): "For multi-tenant systems, there is a need for techniques that
can support private and secure vector operations, such as secure k-NN
search [88, 93]."  The practical family behind those citations encrypts
vectors so an untrusted server can still *compare* distances without
learning the plaintexts.

The scheme here is the standard DCPE construction:

    Enc(x) = s * R @ (x + t) + e,   e ~ Uniform(ball of radius eps)

with secret key (R: random orthogonal matrix, s > 0: scale, t:
translation, eps: noise radius).  Properties:

* rotation + translation + uniform scaling are a similarity transform,
  so **L2 distance order is exactly preserved when eps = 0** and
  preserved up to a 2*s*eps additive slack otherwise — i.e. the server's
  top-k equals the client's top-k whenever true distance gaps exceed
  the slack;
* plaintext coordinates, norms, and inner products are hidden (every
  ciphertext coordinate mixes all plaintext coordinates through R).

This is a faithful prototype of the cited technique class, not a
security review: DCPE leaks distance *order* by design (that is what
makes server-side search possible) and eps trades approximation for
resistance to distance-based inference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.types import VECTOR_DTYPE, Hits
from ..index.registry import make_index


@dataclass(frozen=True)
class DcpeKey:
    """The client's secret: rotation, scale, translation, noise radius."""

    rotation: np.ndarray  # (d, d) orthogonal
    scale: float
    translation: np.ndarray  # (d,)
    noise_radius: float

    @classmethod
    def generate(
        cls, dim: int, scale: float = 3.0, noise_radius: float = 0.0,
        seed: int | None = None,
    ) -> "DcpeKey":
        if scale <= 0:
            raise ValueError("scale must be positive")
        if noise_radius < 0:
            raise ValueError("noise_radius must be >= 0")
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        translation = rng.standard_normal(dim)
        return cls(q, float(scale), translation, float(noise_radius))

    @property
    def dim(self) -> int:
        return self.rotation.shape[0]


class SecureKnnClient:
    """Client side: encrypts vectors/queries, interprets results."""

    def __init__(self, key: DcpeKey, seed: int | None = None):
        self.key = key
        self._rng = np.random.default_rng(seed)

    def _noise(self, count: int) -> np.ndarray:
        if self.key.noise_radius == 0:
            return np.zeros((count, self.key.dim))
        # Uniform in the eps-ball: direction * radius with r^(1/d) law.
        directions = self._rng.standard_normal((count, self.key.dim))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = self.key.noise_radius * self._rng.uniform(
            size=(count, 1)
        ) ** (1.0 / self.key.dim)
        return directions * radii

    def encrypt(self, vectors: np.ndarray) -> np.ndarray:
        """Encrypt one vector or a batch (rows)."""
        arr = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if arr.shape[1] != self.key.dim:
            raise ValueError(f"expected dim {self.key.dim}, got {arr.shape[1]}")
        out = self.key.scale * (arr + self.key.translation) @ self.key.rotation.T
        out = out + self._noise(arr.shape[0])
        return out.astype(VECTOR_DTYPE)

    def plaintext_distance(self, ciphertext_distance):
        """Map server-reported distance(s) back to plaintext units."""
        return ciphertext_distance / self.key.scale

    def comparison_slack(self) -> float:
        """Max plaintext-distance gap the noise can invert.

        Two items whose true distances differ by more than this are
        always ordered correctly by the server.
        """
        return 2.0 * self.key.noise_radius / self.key.scale


class SecureSearchServer:
    """Untrusted server: indexes and searches ciphertexts only.

    Any registered index type works, because DCPE preserves the L2
    geometry the indexes rely on.
    """

    def __init__(self, index_type: str = "hnsw", **index_kwargs):
        self.index_type = index_type
        self.index_kwargs = index_kwargs
        self.index = None

    def load(self, encrypted_vectors: np.ndarray, ids: np.ndarray | None = None):
        self.index = make_index(self.index_type, **self.index_kwargs)
        self.index.build(encrypted_vectors, ids=ids)
        return self

    def search(self, encrypted_query: np.ndarray, k: int, **params) -> Hits:
        if self.index is None:
            raise RuntimeError("server has no encrypted data loaded")
        return self.index.search(encrypted_query, k, **params)


def secure_knn_roundtrip(
    client: SecureKnnClient,
    server: SecureSearchServer,
    plaintext_vectors: np.ndarray,
    plaintext_query: np.ndarray,
    k: int,
    **params,
) -> Hits:
    """Convenience: encrypt-load-search-decode in one call.

    Returned hits carry ids and *plaintext-unit* distances.
    """
    server.load(client.encrypt(plaintext_vectors))
    hits = server.search(client.encrypt(plaintext_query)[0], k, **params)
    return Hits(hits.ids, client.plaintext_distance(hits.distances))
