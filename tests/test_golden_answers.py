"""Golden answers: the engine's floating-point results, pinned bit for bit.

``tests/data/golden_answers.json`` holds ``float.hex()`` renderings of
answers over fixed seeded p-documents: PrStack and EagerTopK under SLCA,
PrStack under ELCA, twig patterns, ``explain`` decompositions and a
threshold query, on one PrXML{ind,mux} document and one with EXP nodes.
Any change to the order in which the stack engine adds or multiplies
probabilities shows up here as a changed hex string, even when the
values still agree to 1e-12.

``tests/data/golden_engine_metrics.json`` pins the ``engine.*`` counters
and histogram summaries of a few of those queries.  That comparison is
exact too: the histogram reservoirs are deterministic, so the same
observations in the same order give the same summaries and quantiles.

Regenerate (only when an answer change is intended) with::

    PYTHONPATH=src python tests/test_golden_answers.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

from repro import (DeweyCode, MetricsCollector, build_index,
                   eager_topk_search, encode_document, explain_result,
                   prstack_search,
                   threshold_search, topk_twig_search,
                   twig_match_probability)
from repro.datagen.dblp import generate_dblp
from repro.datagen.probabilistic import make_probabilistic
from repro.index.inverted import InvertedIndex

GOLDEN = Path(__file__).parent / "data" / "golden_answers.json"
GOLDEN_METRICS = Path(__file__).parent / "data" / "golden_engine_metrics.json"

K = 20

IND_MUX_QUERIES = [
    ["query"], ["query", "data"], ["author", "title"], ["xml", "keyword"],
    ["db", "year", "query"], ["search", "database"], ["conf", "icde"],
    ["author", "pages", "title", "year"],
]
EXP_QUERIES = [["query"], ["query", "data"], ["author", "title"],
               ["db", "year"], ["author", "pages", "title"]]
TWIG_PATTERNS = ['inproceedings[title ~ "query"]//author',
                 'article[author][year]']


def ind_mux_index() -> InvertedIndex:
    document = make_probabilistic(generate_dblp(publications=150, seed=7),
                                  distributional_ratio=0.35, seed=7)
    return build_index(encode_document(document))


def exp_index() -> InvertedIndex:
    document = make_probabilistic(
        generate_dblp(publications=60, seed=11),
        distributional_ratio=0.25, mux_fraction=0.35, exp_fraction=0.35,
        seed=11)
    return build_index(encode_document(document))


def _rows(results: Any) -> List[List[str]]:
    return [[str(result.code), float(result.probability).hex()]
            for result in results]


def _explain(index: InvertedIndex, keywords: List[str],
             code: DeweyCode) -> Dict[str, Any]:
    explanation = explain_result(index, keywords, code)
    return {
        "global": explanation.global_slca_probability.hex(),
        "local": explanation.local_slca_probability.hex(),
        "excluded_below": explanation.excluded_below.hex(),
        "distribution": sorted(
            [" ".join(subset), probability.hex()]
            for subset, probability in explanation.distribution.items()),
    }


def _document_cases(prefix: str, index: InvertedIndex,
                    queries: List[List[str]]) -> Dict[str, Any]:
    cases: Dict[str, Any] = {}
    for keywords in queries:
        name = f"{prefix}/{'+'.join(keywords)}"
        slca = prstack_search(index, keywords, K)
        cases[f"{name}/prstack/slca"] = _rows(slca.results)
        cases[f"{name}/prstack/elca"] = _rows(
            prstack_search(index, keywords, K, elca=True).results)
        cases[f"{name}/eager/slca"] = _rows(
            eager_topk_search(index, keywords, K).results)
        if slca.results:
            # The lowest-ranked answer: its table is rarely trivial.
            cases[f"{name}/explain"] = _explain(index, keywords,
                                                slca.results[-1].code)
    for pattern in TWIG_PATTERNS:
        cases[f"{prefix}/twig/{pattern}"] = {
            "topk": _rows(topk_twig_search(index, pattern, K).results),
            "match": twig_match_probability(index, pattern).hex(),
        }
    return cases


def compute_golden() -> Dict[str, Any]:
    """Every pinned answer, keyed ``document/query/algorithm``."""
    index = ind_mux_index()
    cases = _document_cases("ind_mux", index, IND_MUX_QUERIES)
    cases["ind_mux/threshold/query+data"] = _rows(
        threshold_search(index, ["query", "data"], 0.05).results)
    cases.update(_document_cases("exp", exp_index(), EXP_QUERIES))
    return cases


def _engine_metrics(collector: MetricsCollector) -> Dict[str, Any]:
    snapshot = collector.snapshot()
    quantiles = collector.quantile_snapshot()["histograms"]
    return {
        "counters": {name: value for name, value
                     in snapshot["counters"].items()
                     if name.startswith("engine.")},
        "histograms": {name: dict(summary, quantiles=quantiles[name])
                       for name, summary in snapshot["histograms"].items()
                       if name.startswith("engine.")},
    }


def compute_engine_metrics() -> Dict[str, Any]:
    """``engine.*`` metrics of one query per algorithm and document."""
    runs: Dict[str, Any] = {}
    for prefix, index in (("ind_mux", ind_mux_index()),
                          ("exp", exp_index())):
        for keywords in (["author", "title"], ["query", "data"]):
            name = f"{prefix}/{'+'.join(keywords)}"
            for label, search in (
                    ("prstack/slca", lambda c: prstack_search(
                        index, keywords, K, collector=c)),
                    ("prstack/elca", lambda c: prstack_search(
                        index, keywords, K, elca=True, collector=c)),
                    ("eager/slca", lambda c: eager_topk_search(
                        index, keywords, K, collector=c))):
                collector = MetricsCollector()
                search(collector)
                runs[f"{name}/{label}"] = _engine_metrics(collector)
    return runs


def test_engine_reproduces_golden_answers():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = compute_golden()
    assert sorted(actual) == sorted(expected)
    drifted = [name for name in expected if actual[name] != expected[name]]
    assert not drifted, f"answers changed bit-wise: {drifted}"


def test_golden_fixture_is_not_trivial():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    answered = [name for name, rows in expected.items()
                if name.endswith("/slca") and rows]
    assert len(answered) >= 20
    assert any(name.startswith("exp/") for name in answered)
    assert any(rows["topk"] for name, rows in expected.items()
               if "/twig/" in name)


def test_engine_metrics_match_golden():
    expected = json.loads(GOLDEN_METRICS.read_text(encoding="utf-8"))
    assert compute_engine_metrics() == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_answers.py --write")
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    for path, compute in ((GOLDEN, compute_golden),
                          (GOLDEN_METRICS, compute_engine_metrics)):
        path.write_text(json.dumps(compute(), indent=1, sort_keys=True)
                        + "\n", encoding="utf-8")
        print(f"wrote {path}")
