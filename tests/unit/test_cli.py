"""Unit tests for the command-line interface and p-document round-trips."""

import pytest

from repro.cli import main
from repro.errors import PDocumentError
from repro.pxml.serialize import pdocument_from_text, pdocument_to_text
from repro.workloads import paper


@pytest.fixture
def doc_file(tmp_path, p_per):
    path = tmp_path / "per.pxml"
    path.write_text(pdocument_to_text(p_per), encoding="utf-8")
    return str(path)


class TestRoundTrip:
    def test_paper_fixture(self, p_per):
        assert pdocument_from_text(pdocument_to_text(p_per)) == p_per

    def test_all_counterexample_fixtures(self):
        for p in (paper.p1_example11(), paper.p2_example11(),
                  paper.p3_example12(), paper.p4_example12()):
            assert pdocument_from_text(pdocument_to_text(p)) == p

    def test_missing_probability_rejected(self):
        with pytest.raises(PDocumentError):
            pdocument_from_text("[1] a\n  [2] mux\n    [3] b\n")

    def test_unexpected_probability_rejected(self):
        with pytest.raises(PDocumentError):
            pdocument_from_text("[1] a\n  (0.5) [2] b\n")

    def test_empty_rejected(self):
        with pytest.raises(PDocumentError):
            pdocument_from_text("\n")


class TestCommands:
    def test_eval(self, doc_file, capsys):
        code = main(["eval", doc_file, "IT-personnel//person/bonus[laptop]"])
        out = capsys.readouterr().out
        assert code == 0
        assert "node 5" in out and "0.9" in out

    def test_eval_empty(self, doc_file, capsys):
        code = main(["eval", doc_file, "IT-personnel/zzz"])
        assert code == 0
        assert "no answers" in capsys.readouterr().out

    def test_eval_multiple_queries_batched(self, doc_file, capsys):
        code = main([
            "eval", doc_file,
            "IT-personnel//person/bonus[laptop]",
            "IT-personnel/zzz",
            "--batch",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "query IT-personnel//person/bonus[laptop]" in out
        assert "node 5" in out and "0.9" in out
        assert "no answers" in out

    def test_eval_multiple_queries_sequential_matches_batched(
        self, doc_file, capsys
    ):
        queries = ["IT-personnel//person/bonus[laptop]",
                   "IT-personnel//person/name"]
        assert main(["eval", doc_file, *queries]) == 0
        sequential = capsys.readouterr().out
        assert main(["eval", doc_file, *queries, "--batch"]) == 0
        assert capsys.readouterr().out == sequential

    def test_worlds(self, doc_file, capsys):
        code = main(["worlds", doc_file, "--limit", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("Pr =") == 3 and "more worlds" in out

    def test_rewrite_positive(self, doc_file, capsys):
        code = main([
            "rewrite", doc_file, "IT-personnel//person/bonus[laptop]",
            "--view", "IT-personnel//person/bonus", "--evaluate",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "restricted rewriting" in out and "node 5" in out

    def test_rewrite_negative(self, doc_file, capsys):
        code = main([
            "rewrite", doc_file, "IT-personnel//person/bonus[laptop]",
            "--view", "IT-personnel//name",
        ])
        assert code == 1
        assert "no probabilistic TP-rewriting" in capsys.readouterr().out

    def test_skeleton(self, capsys):
        assert main(["skeleton", "a[b//c]/d//e"]) == 0
        assert main(["skeleton", "a[.//b]//c"]) == 1

    def test_show(self, doc_file, capsys):
        assert main(["show", doc_file]) == 0
        assert "IT-personnel" in capsys.readouterr().out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "q_RBON" in out and "0.675" in out


class TestStoreCommands:
    QUERY = "IT-personnel//person/bonus[laptop]"

    def test_eval_with_store_reuses_across_runs(
        self, doc_file, tmp_path, capsys
    ):
        store_path = str(tmp_path / "memo.db")
        assert main(["eval", doc_file, self.QUERY,
                     "--store", store_path]) == 0
        cold = capsys.readouterr().out
        assert "node 5" in cold and "store" in cold
        assert main(["eval", doc_file, self.QUERY,
                     "--store", store_path]) == 0
        warm = capsys.readouterr().out
        assert "node 5" in warm
        # the second run answers from the persisted entries
        assert "0 misses" in warm

    def test_batch_eval_with_store_matches_plain(
        self, doc_file, tmp_path, capsys
    ):
        queries = [self.QUERY, "IT-personnel//person/name"]
        assert main(["eval", doc_file, *queries]) == 0
        plain = capsys.readouterr().out
        store_path = str(tmp_path / "memo.db")
        assert main(["eval", doc_file, *queries, "--batch",
                     "--store", store_path]) == 0
        stored = capsys.readouterr().out
        assert plain.splitlines() == stored.splitlines()[:-1]  # + store line

    def test_eval_without_batch_reads_what_warm_wrote(self, tmp_path, capsys):
        # A query evaluated on its own runs as a single-query batch of
        # one session: the keys `store warm` wrote for it, so the eval
        # misses nothing and adds no entry.
        from repro.workloads.synthetic import batch_workload

        p, queries = batch_workload(32, seed=2)
        doc = tmp_path / "batch.pxml"
        doc.write_text(pdocument_to_text(p), encoding="utf-8")
        query = queries[0].xpath()
        store_path = str(tmp_path / "memo.db")
        assert main(["store", "warm", store_path, str(doc), query]) == 0
        warmed = capsys.readouterr().out
        entries = int(warmed.split(": ")[1].split(" entries")[0])
        assert entries > 0
        assert main(["eval", str(doc), query, "--store", store_path]) == 0
        trailing = capsys.readouterr().out.splitlines()[-1]
        assert " 0 misses" in trailing
        assert f": {entries} entries," in trailing

    def test_reordered_batch_reads_what_warm_wrote(
        self, doc_file, tmp_path, capsys
    ):
        # `store warm` saves one entry per lane class under per-query
        # keys, so the same queries in another order miss nothing.
        name = "IT-personnel//person/name"
        store_path = str(tmp_path / "memo.db")
        assert main(["store", "warm", store_path, doc_file,
                     self.QUERY, name]) == 0
        capsys.readouterr()
        assert main(["eval", doc_file, name, self.QUERY, "--batch",
                     "--store", store_path]) == 0
        trailing = capsys.readouterr().out.splitlines()[-1]
        assert " 0 misses" in trailing

    def test_warm_then_stats_then_clear(self, doc_file, tmp_path, capsys):
        store_path = str(tmp_path / "memo.db")
        assert main(["store", "warm", store_path, doc_file, self.QUERY]) == 0
        assert "warmed" in capsys.readouterr().out
        assert main(["store", "stats", store_path]) == 0
        stats_out = capsys.readouterr().out
        assert "entries" in stats_out and "weight" in stats_out
        assert main(["store", "clear", store_path]) == 0
        assert "cleared" in capsys.readouterr().out
        assert main(["store", "stats", store_path]) == 0
        assert "entries  0" in capsys.readouterr().out

    def test_stats_on_a_warmed_store_prints_only_file_gauges(
        self, doc_file, tmp_path, capsys
    ):
        store_path = str(tmp_path / "memo.db")
        assert main(["store", "warm", store_path, doc_file, self.QUERY]) == 0
        warmed = capsys.readouterr().out
        entries = int(warmed.split(": ")[1].split(" entries")[0])
        weight = int(warmed.rsplit("weight ", 1)[1])
        assert main(["store", "stats", store_path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"entries  {entries}" in lines
        assert f"weight   {weight}" in lines
        # The store was just opened: no counter of this process says
        # anything about the file.
        assert not any("(this process)" in line for line in lines)

    def test_store_stats_missing_file(self, tmp_path, capsys):
        assert main(["store", "stats", str(tmp_path / "absent.db")]) == 1
        assert "no store file" in capsys.readouterr().err


class TestObservabilityCommands:
    QUERY = "IT-personnel//person/bonus[laptop]"

    def test_eval_trace_writes_jsonl(self, doc_file, tmp_path, capsys):
        from repro.obs import read_spans_jsonl, tracing_enabled

        trace_path = str(tmp_path / "trace.jsonl")
        code = main([
            "eval", doc_file, self.QUERY, "IT-personnel/zzz",
            "--batch", "--trace", trace_path,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "node 5" in out  # tracing never changes the answer
        assert "root spans written to" in out
        assert not tracing_enabled()  # switch restored after the run
        spans = read_spans_jsonl(trace_path)
        assert spans, "expected at least one root span"
        names = set()
        stack = list(spans)
        while stack:
            entry = stack.pop()
            names.add(entry["name"])
            stack.extend(entry.get("children", ()))
        assert "session.answer_many" in names
        assert "stacked.pass" in names  # nested under the root

    def test_eval_profile_renders_attribution(self, doc_file, capsys):
        code = main(["eval", doc_file, self.QUERY, "--profile"])
        out = capsys.readouterr().out
        assert code == 0
        assert f"query {self.QUERY}:" in out
        assert "attributed" in out

    def test_eval_profile_batch(self, doc_file, capsys):
        code = main([
            "eval", doc_file, self.QUERY, "IT-personnel/zzz",
            "--batch", "--profile",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "2-query batch" in out

    def test_stats_table_after_workload(self, doc_file, capsys):
        code = main(["stats", doc_file, self.QUERY])
        out = capsys.readouterr().out
        assert code == 0
        assert "repro_session_queries_total" in out
        assert "repro_store_hits_total{kind=memory}" in out

    def test_stats_prometheus_format(self, doc_file, capsys):
        code = main(["stats", doc_file, self.QUERY, "--format", "prometheus"])
        out = capsys.readouterr().out
        assert code == 0
        assert "# TYPE repro_session_queries_total counter" in out

    def test_stats_bare_dumps_registry(self, capsys):
        assert main(["stats"]) == 0
        # nothing may have run yet in this process; the registry still
        # renders (possibly with every counter at zero)
        assert capsys.readouterr().out.strip()
