"""The four traffic shapes: their inputs, query streams and reference
answers.

Every input is a pure function of ``(workload, seed)``: the documents
are fixed datasets, and the seed draws the query pools and the arrival
schedules.  The server only ever sees the built database (or corpus)
directory and the HTTP requests.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.api import topk_search
from repro.corpus import (build_corpus, concat_documents,
                          load_corpus_manifest)
from repro.datagen import (WorkloadSpec, eligible_terms, generate_dblp,
                           make_document, make_probabilistic)
from repro.index import Database, save_database
from repro.prxml.model import PDocument

#: One request's query: canonical (sorted) terms and k.
Query = Tuple[Tuple[str, ...], int]
#: An answer as it is compared: ``[[code, probability], ...]``.
Answer = List[List[object]]


@dataclass(frozen=True)
class QueryClass:
    """A share of a workload's queries: term count, k and the
    document-frequency band the terms are drawn from."""

    share: float
    terms: int
    k: int
    band: Tuple[int, int]


@dataclass(frozen=True)
class Workload:
    """One traffic shape; why each exists is in README.md."""

    name: str
    corpus: bool
    classes: Tuple[QueryClass, ...]
    open_rps: float
    #: Open-step length of the default run (``--seconds`` sets its own).
    open_s: float
    #: >0: requests repeat, drawn Zipf(s=1) from a pool this large.
    zipf_pool: int = 0
    reload_every_s: float = 0.0

    @property
    def repeats(self) -> bool:
        return self.zipf_pool > 0


_BAND = (20, 2000)
_HOT = (QueryClass(1.0, 2, 10, _BAND),)

WORKLOADS = {w.name: w for w in (
    Workload("cold-single",
             corpus=False,
             classes=(QueryClass(0.7, 2, 10, _BAND),
                      QueryClass(0.3, 3, 10, _BAND)),
             open_rps=30.0, open_s=34.0),
    Workload("hot-zipf",
             corpus=False, classes=_HOT, open_rps=300.0, open_s=15.0,
             zipf_pool=128),
    Workload("corpus-scatter",
             corpus=True,
             classes=(QueryClass(0.5, 2, 10, (5, 400)),
                      QueryClass(0.5, 2, 1, (2, 80))),
             open_rps=50.0, open_s=20.0),
    Workload("reload-mix",
             corpus=False, classes=_HOT, open_rps=100.0, open_s=20.0,
             zipf_pool=128, reload_every_s=10.0),
)}

#: Corpus shape: DBLP-like documents, publications each, shards, replicas.
CORPUS_DOCUMENTS = 16
CORPUS_PUBLICATIONS = 400
CORPUS_SHARDS = 4
CORPUS_REPLICAS = 2
#: Warm-up size of the workloads whose queries never repeat.
COLD_WARMUP = 20
_GOLDEN = (5 ** 0.5 - 1) / 2


def rng_for(seed: int, workload: Workload, purpose: str) -> random.Random:
    """An independent, seed-determined stream per purpose, so a pool's
    size never shifts another pool's draws."""
    return random.Random(f"{seed}:{workload.name}:{purpose}")


def generate_documents(workload: Workload) -> List[Tuple[str, PDocument]]:
    """The fixed datasets: Table II's doc2, or 16 DBLP-like documents.

    They do not vary with the seed: document shape sets most of a
    query's cost, so a seed-drawn dataset would add its own spread to
    every metric.  The seed draws the queries and arrivals.
    """
    if workload.corpus:
        return [(f"dblp{i:02d}",
                 make_probabilistic(generate_dblp(CORPUS_PUBLICATIONS,
                                                  seed=20110101 + i),
                                    seed=673 + i))
                for i in range(CORPUS_DOCUMENTS)]
    return [("doc2", make_document("doc2"))]


def build(workload: Workload, documents: Sequence[Tuple[str, PDocument]],
          directory: str) -> Optional[Database]:
    """Build the served source with the program's public build
    functions; returns the in-memory database of a single document."""
    if workload.corpus:
        build_corpus(documents, directory, shards=CORPUS_SHARDS,
                     replicas=CORPUS_REPLICAS, strategy="hash")
        return None
    database = Database.from_document(documents[0][1])
    save_database(database, directory)
    return database


def reference_database(workload: Workload,
                       documents: Sequence[Tuple[str, PDocument]],
                       built: Optional[Database]) -> Database:
    """What reference answers (and query vocabularies) come from: the
    built document, or the corpus concatenated under one root."""
    if workload.corpus:
        return Database.from_document(concat_documents(documents))
    assert built is not None
    return built


def sample_queries(database: Database, workload: Workload, count: int,
                   rng: random.Random,
                   exclude: frozenset = frozenset()) -> List[Query]:
    """``count`` distinct queries (none in ``exclude``) in the classes'
    shares, each query's terms drawn from its class's band.

    Two orderings keep the cost mix of every stretch of the stream the
    same from seed to seed, so that a run measures the server and not
    its luck of the draw:

    * the class furthest behind its share goes next, so every prefix
      holds the shares exactly;
    * within a class, the queries are ranked by the summed document
      frequency of their terms (which predicts a query's cost) and
      taken in the order of ``frac(rank * golden ratio + u)``, ``u``
      drawn from the seed.  Any run of consecutive queries then covers
      the cost ranks evenly instead of by chance.
    """
    pools = [eligible_terms(database.index,
                            WorkloadSpec(min_frequency=c.band[0],
                                         max_frequency=c.band[1]))
             for c in workload.classes]
    slots: List[int] = []
    quota = [0] * len(pools)
    for filled in range(count):
        position = max(range(len(pools)), key=lambda c: (
            workload.classes[c].share * (filled + 1) - quota[c], -c))
        slots.append(position)
        quota[position] += 1
    seen = set(exclude)
    ordered = []
    for spec, pool, wanted in zip(workload.classes, pools, quota):
        drawn: List[Query] = []
        attempts = 50 * wanted + 1000
        while len(drawn) < wanted:
            attempts -= 1
            if attempts < 0:
                raise RuntimeError(f"{workload.name}: could not draw "
                                   f"{count} distinct queries")
            query = (tuple(sorted(rng.sample(pool, spec.terms))), spec.k)
            if query not in seen:
                seen.add(query)
                drawn.append(query)
        drawn.sort(key=lambda q: (sum(database.index.document_frequency(t)
                                      for t in q[0]), q))
        offset = rng.random()
        keyed = sorted(((rank * _GOLDEN + offset) % 1.0, rank)
                       for rank in range(len(drawn)))
        ordered.append(iter([drawn[rank] for _, rank in keyed]))
    return [next(ordered[position]) for position in slots]


def zipf_stream(pool: Sequence[Query], count: int,
                rng: random.Random) -> List[Query]:
    """``count`` requests over ``pool``, rank ``r`` drawn with weight
    ``1 / r`` (Zipf, s = 1)."""
    weights = [1.0 / rank for rank in range(1, len(pool) + 1)]
    return rng.choices(pool, weights, k=count)


def poisson_offsets(rate: float, seconds: float,
                    rng: random.Random) -> List[float]:
    """Arrival offsets of a Poisson process of ``rate`` per second."""
    offsets: List[float] = []
    now = rng.expovariate(rate)
    while now < seconds:
        offsets.append(now)
        now += rng.expovariate(rate)
    return offsets


def reference_answer(database: Database, workload: Workload,
                     query: Query) -> Answer:
    """The in-process PrStack answer the server's must equal bit for bit.

    For the corpus, the search runs over the concatenation with k + 1
    and drops the synthetic root, which only the concatenation has.
    """
    terms, k = query
    if workload.corpus:
        outcome = topk_search(database, list(terms), k + 1,
                              algorithm="prstack")
        rows = [result for result in outcome.results
                if len(result.code.positions) >= 2][:k]
    else:
        rows = topk_search(database, list(terms), k,
                           algorithm="prstack").results
    return [[str(result.code), result.probability] for result in rows]


def document_shards(corpus_directory: str) -> Dict[int, str]:
    """Global document position (the second component of a result's
    Dewey code) -> shard name, read from ``CORPUS.json``."""
    manifest = load_corpus_manifest(os.fspath(corpus_directory))
    return {doc.global_position: manifest.shard_names[doc.shard]
            for doc in manifest.documents}
