"""Workload definitions and seeded inputs.

Every table has one shape: four correlated, right-skewed (income-shaped)
numeric quasi-identifiers and one tie-free numeric confidential attribute.
The fitted table and the request rows come from separate generator
streams of the run's seed, so served rows are never rows of the fitted
table, and the same seed always gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

QI_NAMES = ("wage", "bonus", "rent", "assets")
CONFIDENTIAL = "balance"
MODEL_NAME = "bench"

N_RECORDS = 20_000
K = 5
T = 0.1
ROWS_PER_REQUEST = 1_000
#: serve-hot draws its request rows from this many distinct rows ...
HOT_POPULATION = 6_000
#: ... with popularity falling off as rank ** -HOT_SKEW (Zipf-like).
HOT_SKEW = 1.1


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    checkpoint: bool
    hot: bool
    #: Fits and serving rounds of a 30-second run; both scale with
    #: ``--seconds`` alone, so a seed always gets the same work however fast
    #: the host is that day.
    fits_per_30s: int
    rounds_per_30s: int

    def fit_count(self, seconds: float) -> int:
        return max(MIN_FITS, round(self.fits_per_30s * seconds / 30.0))

    def round_count(self, seconds: float) -> int:
        return max(MIN_ROUNDS, round(self.rounds_per_30s * seconds / 30.0))


#: Fewest fits and serving rounds in a run, so each median has a middle.
MIN_FITS = 3
MIN_ROUNDS = 3

#: Why each workload exists is recorded in BENCHMARK.json and README.md.
#: On a 2-CPU host a kanon-first fit takes ~5.4 s, a merge fit with
#: checkpoints ~2.6 s and a tclose-first fit ~1.7 s; a serving round takes
#: ~2.3 s with all-distinct rows and ~1.4 s with serve-hot's repeated rows.
#: kanon-tight keeps five fits, because its release utility swings from
#: table to table and a median of fewer tables spreads twice as far;
#: serve-hot's fits are short, so it makes eight for a steadier median.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("kanon-tight", "kanon-first", checkpoint=False, hot=False, fits_per_30s=5, rounds_per_30s=5),
        Workload("merge-ckpt", "merge", checkpoint=True, hot=False, fits_per_30s=5, rounds_per_30s=7),
        Workload("serve-hot", "tclose-first", checkpoint=False, hot=True, fits_per_30s=8, rounds_per_30s=12),
    )
}


def table_arrays(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(qi, confidential)``: an n x 4 income-shaped matrix and a tie-free column."""
    shared = rng.standard_normal(n)
    latent = 0.6 * shared[:, None] + 0.8 * rng.standard_normal((n, len(QI_NAMES)))
    qi = np.round(30_000.0 * np.exp(0.6 * latent), 2)  # amounts in cents
    confidential = rng.permutation(n).astype(np.float64)
    return qi, confidential


def fitted_table(seed: int, index: int) -> tuple[np.ndarray, np.ndarray]:
    """The table that fit number ``index`` of a run anonymizes."""
    return table_arrays(np.random.default_rng([seed, 1, index]), N_RECORDS)


def to_microdata(qi: np.ndarray, confidential: np.ndarray):
    """Wrap raw arrays as the library's table type."""
    from repro.data.attributes import AttributeRole, numeric
    from repro.data.dataset import Microdata

    schema = [numeric(name, AttributeRole.QUASI_IDENTIFIER) for name in QI_NAMES]
    schema.append(numeric(CONFIDENTIAL, AttributeRole.CONFIDENTIAL))
    columns = {name: qi[:, j] for j, name in enumerate(QI_NAMES)}
    columns[CONFIDENTIAL] = confidential
    return Microdata(columns, schema)


@dataclass
class Request:
    """One ``/v1/transform`` request: its rows and its HTTP bytes."""

    qi: np.ndarray
    confidential: np.ndarray
    #: Population row of each request row (serve-hot), else ``None``.
    keys: np.ndarray | None
    wire: bytes


def encode_request(columns: list[list[str]]) -> bytes:
    """The full HTTP/1.1 request for a batch of rows.

    ``columns`` holds each column's values already rendered with ``repr``
    (quasi-identifiers in ``QI_NAMES`` order, then the confidential
    column) — the text ``json.dumps`` writes for a float.
    """
    names = (*QI_NAMES, CONFIDENTIAL)
    records = ", ".join(
        f'"{name}": [' + ", ".join(values) + "]" for name, values in zip(names, columns)
    )
    body = f'{{"model": "{MODEL_NAME}", "records": {{{records}}}}}'.encode()
    head = (
        "POST /v1/transform HTTP/1.1\r\n"
        "Host: perfbench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1")
    return head + body


def rendered(qi: np.ndarray, confidential: np.ndarray) -> list[list[str]]:
    """Every column's values as JSON number text."""
    return [list(map(repr, col.tolist())) for col in (*qi.T, confidential)]


class RequestSource:
    """Deterministic stream of requests for one run.

    All-distinct workloads draw every request's rows fresh from the request
    table's generator, so no row repeats within a run.  serve-hot draws row
    indices from a fixed population with skewed popularity.
    """

    def __init__(self, seed: int, hot: bool) -> None:
        self.hot = hot
        self._rows = np.random.default_rng([seed, 2])
        if hot:
            self._pop_qi, self._pop_conf = table_arrays(self._rows, HOT_POPULATION)
            weights = np.arange(1, HOT_POPULATION + 1, dtype=np.float64) ** -HOT_SKEW
            popularity = np.empty(HOT_POPULATION)
            popularity[self._rows.permutation(HOT_POPULATION)] = weights / weights.sum()
            self._popularity = popularity
            self._pop_text = [np.array(col, dtype=object) for col in rendered(self._pop_qi, self._pop_conf)]
            self._draws = np.random.default_rng([seed, 3])

    def take(self, count: int) -> list[Request]:
        """The next ``count`` requests of the stream."""
        out = []
        for _ in range(count):
            if self.hot:
                keys = self._draws.choice(
                    HOT_POPULATION, ROWS_PER_REQUEST, p=self._popularity
                )
                qi, conf = self._pop_qi[keys], self._pop_conf[keys]
                text = [col[keys].tolist() for col in self._pop_text]
            else:
                keys = None
                qi, conf = table_arrays(self._rows, ROWS_PER_REQUEST)
                text = rendered(qi, conf)
            out.append(Request(qi, conf, keys, encode_request(text)))
        return out
