"""Tests for the benchmark's pure logic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest

import benchlib
import run
import steady


def boundary(t, note, counters, query_ns=0, buckets=(0, 0)):
    return {"t": t, "note": note, "counters": list(counters),
            "query_hist": {"sum_ns": query_ns, "buckets": list(buckets)}}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.nearest_rank(values, 0.5), 50)
        self.assertEqual(benchlib.nearest_rank(values, 0.9), 90)
        self.assertEqual(benchlib.nearest_rank([7], 0.9), 7)
        self.assertEqual(benchlib.nearest_rank([3, 1, 2], 0.5), 2)

    def test_tail_count(self):
        self.assertEqual(benchlib.tail_count(100, 0.9), 10)
        self.assertEqual(benchlib.tail_count(99, 0.9), 9)
        self.assertEqual(benchlib.tail_count(1, 0.5), 0)

    def test_highest_percentile_keeps_ten_samples_beyond(self):
        self.assertEqual(benchlib.highest_percentile(1000), 0.99)
        self.assertEqual(benchlib.highest_percentile(200), 0.95)
        self.assertEqual(benchlib.highest_percentile(100), 0.9)
        self.assertEqual(benchlib.highest_percentile(99), 0.75)
        self.assertEqual(benchlib.highest_percentile(20), 0.5)
        self.assertIsNone(benchlib.highest_percentile(19))


class HistogramTest(unittest.TestCase):
    def test_single_bucket_interpolates_inside_it(self):
        # 10 samples in [1024, 2048) ns.
        buckets = [0] * 10 + [10]
        self.assertEqual(benchlib.hist_quantile(buckets, 0.5), 1536.0)
        self.assertEqual(benchlib.hist_quantile(buckets, 1.0), 2048.0)

    def test_p50_and_p99_pick_their_buckets(self):
        # 98 fast samples in [2, 4) ns, 2 slow ones in [2^20, 2^21) ns.
        buckets = [0] * 21
        buckets[1], buckets[20] = 98, 2
        p50 = benchlib.hist_quantile(buckets, 0.50)
        p99 = benchlib.hist_quantile(buckets, 0.99)
        self.assertTrue(2 <= p50 < 4)
        self.assertTrue(2 ** 20 <= p99 <= 2 ** 21)

    def test_bucket_zero_starts_at_zero_and_empty_is_zero(self):
        self.assertEqual(benchlib.hist_quantile([4], 0.5), 1.0)
        self.assertEqual(benchlib.hist_quantile([0, 0, 0], 0.99), 0.0)


class SpanTest(unittest.TestCase):
    # Counters: [queries, frames].
    BOUNDARIES = [
        boundary(0.0, "flow", [100, 1000], 0, [0, 0]),
        boundary(0.5, "generating combinational test set C", [100, 1000]),
        boundary(2.0, "pipeline (greedy T0)", [110, 1500], 50, [3, 0]),
        boundary(2.1, "phases 1+2 (iterated)", [110, 1500], 50, [3, 0]),
        boundary(2.2, "phase 1 (scan-in / scan-out selection)", [111, 1600],
                 60, [3, 1]),
        boundary(3.0, "phase 4 (combining)", [130, 4000], 400, [9, 4]),
        boundary(4.0, "", [140, 4600], 700, [9, 8]),
    ]

    def test_tree_and_counter_deltas(self):
        spans = benchlib.build_spans(self.BOUNDARIES)
        by_name = {s["name"]: s for s in spans}
        self.assertEqual([s["name"] for s in spans],
                         ["flow", "atpg.comb", "tcomp.pipeline_greedy",
                          "tcomp.iterate", "tcomp.phase1", "tcomp.combine"])
        root = by_name["flow"]
        self.assertEqual(root["counters"], [40, 3600])
        self.assertEqual(root["query_ns"], 700)
        self.assertEqual(root["query_buckets"], [9, 8])
        self.assertEqual(by_name["atpg.comb"]["counters"], [10, 500])
        self.assertEqual(by_name["tcomp.iterate"]["counters"], [20, 2500])
        # Phase 1 closes when Phase 4 opens, both under the pipeline.
        self.assertEqual(by_name["tcomp.phase1"]["end"], 3.0)
        self.assertEqual(spans[by_name["tcomp.combine"]["parent"]]["name"],
                         "tcomp.pipeline_greedy")
        self.assertEqual(by_name["tcomp.combine"]["counters"], [10, 600])
        self.assertEqual(by_name["tcomp.combine"]["query_buckets"], [0, 4])

    def test_unattributed(self):
        spans = benchlib.build_spans(self.BOUNDARIES)
        # Only the 0.5 s before the first stage is outside every stage.
        self.assertAlmostEqual(benchlib.unattributed(spans), 0.5)

    def test_unknown_note_nests_under_open_span(self):
        spans = benchlib.build_spans([
            boundary(0.0, "flow", [0]),
            boundary(1.0, "baseline [4]", [0]),
            boundary(2.0, "something new", [5]),
            boundary(3.0, "", [9]),
        ])
        self.assertEqual(spans[2]["name"], "something new")
        self.assertEqual(spans[2]["depth"], 2)
        self.assertEqual(spans[2]["counters"], [4])

    def test_layer_metrics_add_over_flows(self):
        # Every counter the metrics read, the first two as above.
        names = ["queries_run", "frames_simulated"] + sorted(
            set(benchlib.COUNTERS_READ) - {"queries_run", "frames_simulated"})
        padded = [dict(b, counters=b["counters"] + [0] * (len(names) - 2))
                  for b in self.BOUNDARIES]
        spans = benchlib.build_spans(padded)
        m = benchlib.flows_layer_metrics([spans, spans], names)
        self.assertEqual(m["fault.queries"], 80)
        self.assertEqual(m["sim.frames"], 7200)
        self.assertEqual(m["fault.query_s"], 1400e-9)
        self.assertAlmostEqual(m["sim.ns_per_frame"], 1400 / 7200)
        self.assertAlmostEqual(m["atpg.comb_s"], 3.0)
        self.assertAlmostEqual(m["tcomp.combine_s"], 2.0)
        self.assertEqual(m["tgen.greedy_s"], 0)

    def test_interval_union(self):
        self.assertEqual(benchlib.interval_union([]), 0.0)
        self.assertEqual(benchlib.interval_union([(0, 2), (1, 3), (5, 6)]), 4)


class RecordTest(unittest.TestCase):
    RECORD = "version=6\nname=s27\nfaults=32\natpg.det_final=30\n" \
             "atspeed_ave_4=1.5\nseconds=0.25\ncompleted=1\nstopped_at=\n"

    def test_parse_drops_wall_clock_and_version(self):
        rec = benchlib.parse_record(self.RECORD)
        self.assertNotIn("seconds", rec)
        self.assertNotIn("version", rec)
        self.assertEqual(rec["atpg.det_final"], "30")
        self.assertEqual(rec["stopped_at"], "")

    def test_equal_records_match_whatever_the_wall_clock(self):
        a = benchlib.parse_record(self.RECORD)
        b = benchlib.parse_record(self.RECORD.replace("0.25", "9.75"))
        self.assertEqual(benchlib.record_mismatches(a, b), [])

    def test_flipped_field_is_a_failure(self):
        expected = benchlib.parse_record(self.RECORD)
        actual = benchlib.parse_record(
            self.RECORD.replace("det_final=30", "det_final=31"))
        self.assertEqual(benchlib.record_mismatches(expected, actual),
                         ["atpg.det_final"])

    def test_missing_and_extra_fields_are_failures(self):
        expected = {"a": 1, "b": 2}
        self.assertEqual(benchlib.record_mismatches(expected, {"a": 1}),
                         ["b"])
        self.assertEqual(
            benchlib.record_mismatches(expected, {"a": 1, "b": 2, "c": 3}),
            ["c"])

    def test_service_result_flattens_and_ignores_seconds(self):
        result = {"name": "s27", "atpg": {"det_final": 30, "len_t0": 9},
                  "seconds": 0.1}
        flat = benchlib.flatten(result)
        self.assertEqual(flat["atpg.det_final"], 30)
        expected = dict(flat, seconds=7.0)
        self.assertEqual(benchlib.record_mismatches(expected, flat), [])
        flat["atpg.len_t0"] = 10
        self.assertEqual(benchlib.record_mismatches(expected, flat),
                         ["atpg.len_t0"])


class SpreadTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        q1, med, q3 = benchlib.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual((q1, med, q3), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(benchlib.spread([1, 2, 3, 4, 5, 6, 7, 8, 9,
                                                10]), 5.5 / 5.5)

    def test_aa_resolution(self):
        a = [10.0, 10.1, 9.9, 10.0, 10.05]
        b = [10.02, 10.1, 9.95, 10.0, 10.0]
        verdict = steady.aa_verdict(a, b, 0.1, "lower", check_spread=True)
        self.assertTrue(verdict["resolved"])
        worse = [12.0, 12.1, 11.9, 12.0, 12.05]
        verdict = steady.aa_verdict(a, worse, 0.1, "lower", check_spread=True)
        self.assertFalse(verdict["resolved"])
        # Higher-is-better metrics regress downwards.
        verdict = steady.aa_verdict(a, [x * 0.8 for x in a], 0.1, "higher",
                                    check_spread=True)
        self.assertFalse(verdict["resolved"])
        noisy = [5.0, 10.0, 15.0, 10.0, 10.0, 2.0]
        verdict = steady.aa_verdict(noisy, noisy, 0.1, "lower",
                                    check_spread=True)
        self.assertFalse(verdict["resolved"])
        verdict = steady.aa_verdict(noisy, noisy, 0.1, "lower",
                                    check_spread=False)
        self.assertTrue(verdict["resolved"])


class ServeJobsTest(unittest.TestCase):
    REFS = {"circuits": ["b01", "b10", "s298"], "seeds": list(range(1, 33))}

    def test_pass_mix(self):
        jobs = run.pass_jobs(self.REFS, 1, 0, "p")
        counts = {c: sum(j["circuit"] == c for j in jobs)
                  for c in self.REFS["circuits"]}
        self.assertEqual(counts, {"b01": run.SERVE_JOBS_PER_CIRCUIT,
                                  "b10": run.SERVE_JOBS_ON["b10"],
                                  "s298": run.SERVE_JOBS_PER_CIRCUIT})
        self.assertEqual(len({j["id"] for j in jobs}), len(jobs))

    def test_passes_draw_fresh_job_seeds(self):
        seeds = {}
        for i in range(32 // run.SERVE_JOBS_PER_CIRCUIT):
            for j in run.pass_jobs(self.REFS, 7, i, "p"):
                seeds.setdefault(j["circuit"], []).append(j["seed"])
        # 16 passes use every job seed once, twice over on b10.
        self.assertEqual(sorted(seeds["b01"]), self.REFS["seeds"])
        self.assertEqual(sorted(seeds["s298"]), self.REFS["seeds"])
        self.assertEqual(sorted(seeds["b10"]), sorted(self.REFS["seeds"] * 2))

    def test_the_workload_seed_fixes_the_jobs(self):
        self.assertEqual(run.pass_jobs(self.REFS, 3, 2, "p"),
                         run.pass_jobs(self.REFS, 3, 2, "p"))
        self.assertNotEqual(run.pass_jobs(self.REFS, 3, 2, "p"),
                            run.pass_jobs(self.REFS, 4, 2, "p"))


class CatalogTest(unittest.TestCase):
    def test_benchmark_json_matches_the_metrics_run_py_reports(self):
        with open(steady.ROOT / "BENCHMARK.json") as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in bench["per_layer"]], benchlib.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
