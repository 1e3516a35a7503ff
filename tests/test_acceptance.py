"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
verdict lines for passing criteria as well).  The two real-dataset checks
at the bottom are optional and only run when the corresponding environment
variables point at locally provided corpora.
"""

import math
import os
import time
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from logad.detect import (
    iforest_fit,
    iforest_score,
    kmeans_fit,
    kmeans_score,
    oovd_score,
    rm_fit,
    rm_score,
)
from logad.evaluate import score_table
from logad.ingest import Label, LogRecord, Granularity, SplitMode, SplitSpec, load, split
from logad.normalize import normalize_block, normalize_message
from logad.pipeline import ConfigError, RunConfig, execute, run
from logad.represent import DrainParser, TokenSeq, WILDCARD, tokenize_trigrams
from logad.synth import gen_synthetic
from logad.vectorize import (
    DocTermMatrix, Weighting, count_units, fit_units, tfidf_weighting,
)
from csr import from_dense, to_scipy
from reference import pairwise_auc
from rows import record_set


def verdict(cid: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {cid}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{cid}: {detail}"


def docs(term_lists):
    return [TokenSeq(list(t)) for t in term_lists]


def dtm(rows):
    arr = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    totals = (arr != 0).sum(axis=1).astype(np.int64)
    return DocTermMatrix(from_dense(arr), Weighting.TFIDF, totals)


# ---------------------------------------------------------------------------
# corpora shared by the end-to-end criteria
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def unseen_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("acc") / "unseen.log"
    return gen_synthetic(path, n_normal=10_000, n_anomalies=200, n_templates=20,
                         anomaly_kind="unseen_token", seed=7)


@pytest.fixture(scope="module")
def rare_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("acc") / "rare.log"
    return gen_synthetic(path, n_normal=10_000, n_anomalies=200, n_templates=20,
                         anomaly_kind="rare_token", seed=7)


# ---------------------------------------------------------------------------
# criterion 1: oracle equivalence under randomized instances
# ---------------------------------------------------------------------------

def _random_instance(rng):
    vocab_size = int(rng.integers(5, 201))
    universe = [f"t{i}" for i in range(int(vocab_size * 1.5))]
    n_train = int(rng.integers(2, 251))
    n_test = int(rng.integers(1, 251))
    train = [
        [universe[rng.integers(vocab_size)] for _ in range(rng.integers(1, 12))]
        for _ in range(n_train)
    ]
    test = [
        [universe[rng.integers(len(universe))] for _ in range(rng.integers(0, 12))]
        for _ in range(n_test)
    ]
    return train, test


def _naive_rm(train, test):
    n_train = len(train)
    df, tt, total = Counter(), Counter(), 0
    for doc in train:
        for t, k in Counter(doc).items():
            df[t] += 1
            tt[t] += k
            total += k
    rarity = {t: -math.log(tt[t] / total) for t in tt}
    idf = {t: math.log((1 + n_train) / (1 + df[t])) + 1.0 for t in df}
    out = []
    for doc in test:
        cells = {t: k * idf[t] for t, k in Counter(doc).items() if t in idf}
        norm = math.sqrt(sum(v * v for v in cells.values()))
        if norm == 0.0 or not doc:
            out.append(0.0)
            continue
        out.append(sum((v / norm) * rarity[t] for t, v in cells.items()) / len(doc))
    return out


def test_c1_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)

    for _ in range(200):  # oovd vs naive membership loop, exact
        train, test = _random_instance(rng)
        v, _ = fit_units(docs(train))
        got = oovd_score(v, count_units(v.term_to_col, docs(test)))
        vocab_set = {t for d in train for t in d}
        want = [float(sum(1 for t in d if t not in vocab_set)) for d in test]
        assert got.tolist() == want

    for _ in range(200):  # rm vs naive per-token sum, 1e-9
        train, test = _random_instance(rng)
        v, _ = fit_units(docs(train))
        got = rm_score(rm_fit(v), tfidf_weighting(v, count_units(v.term_to_col, docs(test))))
        np.testing.assert_allclose(got, _naive_rm(train, test), rtol=1e-9, atol=1e-12)

    for _ in range(200):  # auc vs O(n^2) pairwise oracle with half ties
        n = int(rng.integers(2, 501))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.integers(0, 10, size=n) / 5.0  # coarse grid forces ties
        assert abs(score_table(scores, labels).auc() - pairwise_auc(scores, labels)) < 1e-12

    elapsed = time.perf_counter() - t0
    verdict("C1 oracle equivalence (oovd/rm/auc x200)", elapsed < 10.0,
            f"{elapsed:.1f}s, bound 10s")


# ---------------------------------------------------------------------------
# criterion 2: hand-computed fixtures
# ---------------------------------------------------------------------------

def test_c2_fixtures():
    ok = normalize_message("Time 12:34:56") == "time 0:0:0"
    raw = "4 ddr error(s) detected and corrected on rank 0, symbol 11 over 20609 seconds"
    ok &= normalize_message(raw) == (
        "0 ddr error(s) detected and corrected on rank 0, symbol 0 over 0 seconds"
    )

    v, _ = fit_units(docs([["a", "b"], ["b", "c"]]))
    ok &= abs(v.idf()[v.term_to_col["a"]] - (math.log(1.5) + 1.0)) < 1e-12
    ok &= round(float(v.idf()[v.term_to_col["a"]]), 4) == 1.4055

    v1, _ = fit_units(docs([["a", "a", "a", "b"]]))
    tfidf = tfidf_weighting(v1, count_units(v1.term_to_col, docs([["a", "b", "c"]])))
    row = tfidf.matrix.toarray()[0]
    ok &= round(float(row[v1.term_to_col["a"]]), 4) == 0.7071
    ok &= round(float(row[v1.term_to_col["b"]]), 4) == 0.7071

    score = rm_score(rm_fit(v1), tfidf)[0]
    ok &= round(float(score), 4) == 0.3946

    p = DrainParser(sim_threshold=0.4)
    e1 = p.fit_line("send a")
    e2 = p.fit_line("send b")  # similarity 1/2 >= 0.4 joins the group
    ok &= e1 == e2 and p.groups()[0].template == ["send", WILDCARD]

    verdict("C2 hand-computed fixtures", ok)


# ---------------------------------------------------------------------------
# criterion 3: synthetic end-to-end
# ---------------------------------------------------------------------------

def _cfg(corpus, **kw):
    base = dict(input=Path(corpus), adapter="bgl", representation="words",
                train_fraction=0.05, seed=1)
    base.update(kw)
    return RunConfig(**base)


def test_c3a_unseen_normal_only(unseen_corpus):
    oovd = run(_cfg(unseen_corpus, model="oovd", scenario="normal_only"))
    rm = run(_cfg(unseen_corpus, model="rm", scenario="normal_only"))
    ok = oovd.auc == 1.0 and rm.auc >= 0.95
    verdict("C3a unseen_token/normal_only OOVD==1.0, RM>=0.95", ok,
            f"oovd={oovd.auc:.4f} rm={rm.auc:.4f}")


def test_c3b_rare_unfiltered_iforest(rare_corpus):
    aucs = [
        run(_cfg(rare_corpus, model="iforest", scenario="unfiltered", seed=s)).auc
        for s in range(5)
    ]
    mean = float(np.mean(aucs))
    verdict("C3b rare_token/unfiltered IForest mean AUC >= 0.80 (5 seeds)",
            mean >= 0.80, f"mean={mean:.4f}")


def test_c3c_oovd_unfiltered_rejected(unseen_corpus):
    try:
        run(_cfg(unseen_corpus, model="oovd", scenario="unfiltered"))
        ok = False
    except ConfigError:
        ok = True
    verdict("C3c oovd+unfiltered rejected with config error", ok)


# ---------------------------------------------------------------------------
# criterion 4: relative model speed on a million-line corpus
# ---------------------------------------------------------------------------

def test_c4_speed_ordering(tmp_path):
    t0 = time.perf_counter()
    corpus = gen_synthetic(tmp_path / "big.log", 1_000_000, 2_000, 20,
                           "rare_token", seed=11)
    rs = load(corpus, "bgl", normalizer=normalize_block)
    train_rs, test_rs = split(rs, SplitSpec(0.05, seed=1))
    train_docs = [tokenize_trigrams(msg) for msg in train_rs.messages]
    vocab, train_counts = fit_units(train_docs)
    train_m = tfidf_weighting(vocab, train_counts)
    test_docs = (tokenize_trigrams(msg) for msg in test_rs.messages)
    test_m = tfidf_weighting(vocab, count_units(vocab.term_to_col, test_docs))

    def model_time(fit, score_fn):
        t_fit = time.perf_counter()
        model = fit()
        t_score = time.perf_counter()
        score_fn(model)
        return time.perf_counter() - t_fit, time.perf_counter() - t_score

    rm_t = sum(model_time(lambda: rm_fit(vocab), lambda m: rm_score(m, test_m))) / 2
    km_t = sum(model_time(lambda: kmeans_fit(train_m, 8, 1), lambda m: kmeans_score(m, test_m))) / 2
    if_t = sum(model_time(lambda: iforest_fit(train_m, 100, 256, 1),
                          lambda m: iforest_score(m, test_m))) / 2
    elapsed = time.perf_counter() - t0

    ordered = rm_t < km_t < if_t
    ratio = if_t / rm_t
    verdict("C4 1M-line trigram model time RM < KMeans < IForest, IF/RM >= 10, < 5 min",
            ordered and ratio >= 10.0 and elapsed < 300.0,
            f"rm={rm_t:.2f}s kmeans={km_t:.2f}s iforest={if_t:.2f}s "
            f"ratio={ratio:.0f} total={elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 5: isolation forest analytics
# ---------------------------------------------------------------------------

def test_c5_iforest_analytics():
    two = dtm([[0.0], [1.0]])
    model = iforest_fit(two, n_trees=50, subsample=2, seed=0)
    exact_half = iforest_score(model, two).tolist() == [0.5, 0.5]

    same = dtm([[2.0, 5.0]] * 12)
    model = iforest_fit(same, n_trees=20, subsample=12, seed=1)
    symmetric = np.unique(iforest_score(model, same)).size == 1

    rng = np.random.default_rng(0)
    offset = 10.0 / math.sqrt(2)  # 10 sigma from the cluster center
    pts = np.vstack([rng.normal(0.0, 1.0, size=(500, 2)), [[offset, offset]]])
    m = dtm(pts)
    wins = 0
    for seed in range(100):
        scores = iforest_score(iforest_fit(m, n_trees=100, subsample=256, seed=seed), m)
        wins += int(scores[500] > scores[:500].max())

    verdict("C5 iforest analytics (two-point 0.5, symmetry, outlier rank)",
            exact_half and symmetric and wins >= 99,
            f"exact_half={exact_half} symmetric={symmetric} wins={wins}/100")


# ---------------------------------------------------------------------------
# criterion 6: invariant suites
# ---------------------------------------------------------------------------

def test_c6a_normalization_idempotence():
    rng = np.random.default_rng(1)
    alphabet = "aA zZ09!:/.,-_()[]éش中"
    ok = True
    for _ in range(500):
        s = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), rng.integers(0, 60)))
        once = normalize_message(s)
        ok &= normalize_message(once) == once
    verdict("C6a normalization idempotence", ok)


def test_c6b_trigram_length_law():
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(500):
        n = int(rng.integers(0, 80))
        s = "".join(chr(97 + int(c)) for c in rng.integers(0, 26, n))
        terms = tokenize_trigrams(s).terms
        ok &= len(terms) == (len(s) - 2 if len(s) >= 3 else 1)
    verdict("C6b trigram length law", ok)


def test_c6c_flatten_token_conservation():
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 40))
        records, seqs = [], []
        for i in range(n):
            records.append(LogRecord(message="", line_no=i, label=Label.NORMAL,
                                     seq_key=f"s{rng.integers(6)}"))
            seqs.append(TokenSeq([f"t{rng.integers(9)}" for _ in range(rng.integers(0, 7))]))
        rs = record_set(records, Granularity.SEQUENCE)
        # Every record's terms summed into its sequence's row, as the pipeline counts.
        units = count_units({f"t{i}": i for i in range(9)}, seqs, np.arange(n), rs.unit_ids,
                             rs.n_units)
        total = sum(len(s.terms) for s in seqs)
        ok &= int(units.doc_token_totals.sum()) == total == int(units.matrix.row_sums().sum())
    verdict("C6c sequence units preserve token counts", ok)


def test_c6d_tfidf_unit_norms():
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(50):
        train = [[f"t{rng.integers(30)}" for _ in range(rng.integers(1, 10))] for _ in range(30)]
        test = [[f"t{rng.integers(45)}" for _ in range(rng.integers(0, 10))] for _ in range(30)]
        v, _ = fit_units(docs(train))
        m = to_scipy(tfidf_weighting(v, count_units(v.term_to_col, docs(test))).matrix)
        norms = np.sqrt(np.asarray(m.multiply(m).sum(axis=1))).ravel()
        nonzero = np.diff(m.indptr) > 0
        ok &= bool(np.all(np.abs(norms[nonzero] - 1.0) < 1e-9)) and bool(np.all(norms[~nonzero] == 0))
    verdict("C6d tf-idf rows have unit norm", ok)


def test_c6e_auc_monotone_invariance():
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(100):
        n = int(rng.integers(4, 80))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.normal(size=n)
        base = score_table(scores, labels).auc()
        for f in (lambda s: 2.0 * s + 1.0, np.exp, lambda s: s ** 3):
            ok &= abs(score_table(f(scores), labels).auc() - base) < 1e-12
    verdict("C6e AUC invariant under strictly increasing transforms", ok)


def test_c6f_best_f1_exact_dominates_budgeted():
    rng = np.random.default_rng(6)
    ok = True
    for _ in range(100):
        n = int(rng.integers(3, 150))
        labels = rng.integers(0, 2, size=n)
        labels[0] = 1
        scores = np.round(rng.random(n), 2)
        _, exact = score_table(scores, labels).best_f1()
        for budget in (1, 5, 20):
            _, capped = score_table(scores, labels).best_f1(budget=budget)
            ok &= exact >= capped - 1e-12
        _, unbounded = score_table(scores, labels).best_f1(budget=10 ** 9)
        ok &= unbounded == exact
    verdict("C6f best_f1 exact >= budgeted, budgeted(inf) == exact", ok)


def _mangle_test_lines(corpus: Path, out: Path, config: RunConfig) -> None:
    rs = load(corpus, config.adapter)
    spec = SplitSpec(config.train_fraction, config.seed, SplitMode(config.split_mode))
    _, test_rs = split(rs, spec)
    test_line_nos = set(test_rs.line_nos.tolist())
    mangled = []
    for i, line in enumerate(corpus.read_text().splitlines()):
        if i in test_line_nos:
            head = " ".join(line.split(maxsplit=9)[:9])
            mangled.append(head + f" mangled payload qq{i} zz ww yy xx vv")
        else:
            mangled.append(line)
    out.write_text("\n".join(mangled) + "\n")


def test_c6g_train_test_leakage_canary(unseen_corpus, tmp_path):
    ok = True
    for model, rep in (("rm", "words"), ("oovd", "events"), ("iforest", "trigrams")):
        config = _cfg(unseen_corpus, model=model, representation=rep,
                      scenario="normal_only", train_fraction=0.05, seed=3)
        mangled = tmp_path / f"mangled_{model}_{rep}.log"
        _mangle_test_lines(Path(unseen_corpus), mangled, config)
        _, base = execute(config)
        _, other = execute(_cfg(mangled, model=model, representation=rep,
                                scenario="normal_only", train_fraction=0.05, seed=3))
        ok &= base.vocabulary.term_to_col == other.vocabulary.term_to_col
        ok &= bool(np.array_equal(base.vocabulary.term_total, other.vocabulary.term_total))
        if rep == "events":
            ok &= [(g.event_id, g.template) for g in base.drain.groups()] == [
                (g.event_id, g.template) for g in other.drain.groups()
            ]
        if model == "rm":
            ok &= bool(np.array_equal(base.model.rarity, other.model.rarity))
        if model == "iforest":
            for field in fields(base.model):
                ok &= bool(np.array_equal(getattr(base.model, field.name),
                                          getattr(other.model, field.name)))
    verdict("C6g mutating test data never changes fitted artifacts", ok)


# ---------------------------------------------------------------------------
# criterion 7 (optional): real datasets supplied by the user
# ---------------------------------------------------------------------------

_HDFS_LOG = os.environ.get("LOGAD_HDFS_LOG")
_HDFS_LABELS = os.environ.get("LOGAD_HDFS_LABELS")
_BGL_LOG = os.environ.get("LOGAD_BGL_LOG")


@pytest.mark.skipif(not (_HDFS_LOG and _HDFS_LABELS),
                    reason="set LOGAD_HDFS_LOG and LOGAD_HDFS_LABELS to run")
def test_c7_hdfs_rm_unfiltered():
    report = run(RunConfig(input=Path(_HDFS_LOG), adapter="hdfs", labels=Path(_HDFS_LABELS),
                           representation="words", model="rm", scenario="unfiltered",
                           train_fraction=0.05, seed=1))
    verdict("C7 HDFS RM unfiltered AUC within 0.02 of 0.999",
            abs(report.auc - 0.999) <= 0.02, f"auc={report.auc:.4f}")


@pytest.mark.skipif(not _BGL_LOG, reason="set LOGAD_BGL_LOG to run")
def test_c7_bgl_oovd_normal_only():
    report = run(RunConfig(input=Path(_BGL_LOG), adapter="bgl",
                           representation="trigrams", model="oovd", scenario="normal_only",
                           train_fraction=0.05, seed=1))
    verdict("C7 BGL OOVD normal-only trigrams AUC within 0.02 of 0.997",
            abs(report.auc - 0.997) <= 0.02, f"auc={report.auc:.4f}")
