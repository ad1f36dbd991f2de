"""The mutation catalogue that ``run.py`` re-runs.

Each entry replaces the exact text ``old`` (which must occur once in
``file``) by ``new`` and names the tests that must each fail under it, as
pytest node ids. A change that moves or rewrites the text updates its entry
in the same commit; a change that adds a check adds the mutant it was
tested against.
"""

CLI = "src/qcpart/cli.py"
CIRCUIT = "src/qcpart/circuit.py"
DPCORE = "src/qcpart/dpcore.py"
EXECUTOR = "src/qcpart/executor.py"
PARTITIONER = "src/qcpart/partitioner.py"

MUTANTS = [
    # --- list specs and generators (cli) ----------------------------------------
    {
        "id": "bench-reads-specs-lazily",
        "file": CLI,
        "old": "    gens = [(name, _int_ranges(sizes)) for name, sizes in"
               " map(_split_gen_spec, args.gen or [])]\n",
        "new": "    gens = ((name, _int_ranges(sizes)) for name, sizes in"
               " map(_split_gen_spec, args.gen or []))\n",
        "tests": [
            "tests/test_cli.py::test_bench_checks_every_spec_before_writing",
            "tests/test_cli.py::test_bad_inputs_exit_2",
        ],
    },
    {
        "id": "one-value-range-is-descending",
        "file": CLI,
        "old": "        if hi < lo:\n",
        "new": "        if hi <= lo:\n",
        "tests": [
            "tests/test_cli.py::test_parse_int_list",
            "tests/test_cli.py::test_single_value_spec_accepts_a_one_value_range",
        ],
    },
    {
        "id": "bad-entry-keeps-int-message",
        "file": CLI,
        "old": "        except ValueError:\n            raise ValueError(f\"bad entry",
        "new": "        except KeyError:\n            raise ValueError(f\"bad entry",
        "tests": [
            "tests/test_cli.py::test_bad_inputs_exit_2",
        ],
    },
    {
        "id": "gen-skips-generator-check",
        "file": CLI,
        "old": "    _check_generator(args.generator)\n    circuit = GENERATORS",
        "new": "    circuit = GENERATORS",
        "tests": [
            "tests/test_cli.py::test_gen_unknown_generator",
        ],
    },
    # --- .real importer (circuit) -----------------------------------------------
    {
        "id": "real-t2-skips-control-target-check",
        "file": CIRCUIT,
        "old": "            if target in controls:\n",
        "new": "            if target in controls[1:]:\n",
        "tests": [
            "tests/test_circuit.py::test_import_real_line_errors",
            "tests/test_circuit.py::test_import_real_decomposes_toffoli_pairwise",
        ],
    },
    {
        "id": "real-tk-accepts-repeated-controls",
        "file": CIRCUIT,
        "old": "            if len(set(controls)) < len(controls):\n"
               "                raise CircuitSyntaxError(\"controls must be distinct\", lineno)\n",
        "new": "",
        "tests": [
            "tests/test_circuit.py::test_import_real_line_errors",
        ],
    },
    {
        "id": "real-t2-marked-decomposed",
        "file": CIRCUIT,
        "old": "                if arity > 2:\n                    decomposed = True\n",
        "new": "                if arity >= 2:\n                    decomposed = True\n",
        "tests": [
            "tests/test_circuit.py::test_import_real_basic_gates",
        ],
    },
    # --- .qc tokenizer (circuit) ------------------------------------------------
    {
        "id": "qc-19-digit-fast-path",
        "file": CIRCUIT,
        "old": "(o_len <= 18)",
        "new": "(o_len <= 19)",
        "tests": [
            "tests/test_columns.py::test_parse_edge_cases_match_reference",
            "tests/test_columns.py::test_parse_matches_reference",
        ],
    },
    {
        "id": "qc-digit-loop-one-short",
        "file": CIRCUIT,
        "old": "min(o_len.max(initial=0), 18)",
        "new": "min(o_len.max(initial=0), 17)",
        "tests": [
            "tests/test_columns.py::test_parse_edge_cases_match_reference",
            "tests/test_columns.py::test_parse_matches_reference",
        ],
    },
    {
        "id": "qc-x1f-in-line-break-tuple",
        "file": CIRCUIT,
        "old": "LINE_BREAKS = (0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E, 0x85,",
        "new": "LINE_BREAKS = (0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E, 0x1F, 0x85,",
        "tests": [
            "tests/test_columns.py::test_character_classes_match_str",
            "tests/test_columns.py::test_code_point_classes_match_str",
        ],
    },
    {
        "id": "qc-x1f-as-ascii-line-break",
        "file": CIRCUIT,
        "old": "((codes - 28) < 3))",
        "new": "((codes - 28) < 4))",
        "tests": [
            "tests/test_columns.py::test_code_point_classes_match_str",
            "tests/test_columns.py::test_parse_matches_reference",
        ],
    },
    {
        "id": "qc-no-crlf-correction",
        "file": CIRCUIT,
        "old": " - text.count(\"\\r\\n\", 0, at) + 1",
        "new": " + 1",
        "tests": [
            "tests/test_columns.py::test_parse_edge_cases_match_reference",
            "tests/test_columns.py::test_parse_matches_reference",
        ],
    },
    {
        "id": "qc-ascii-tab-to-cr-narrowed",
        "file": CIRCUIT,
        "old": "np.less(codes - 9, 5, out=space[1:-1])",
        "new": "np.less(codes - 9, 4, out=space[1:-1])",
        "tests": [
            "tests/test_columns.py::test_code_point_classes_match_str",
            "tests/test_circuit.py::test_parse_accepts_comments_blank_lines_and_crlf",
        ],
    },
    {
        "id": "qc-ascii-separators-and-space-narrowed",
        "file": CIRCUIT,
        "old": "space[1:-1] |= (codes - 28) < 5",
        "new": "space[1:-1] |= (codes - 28) < 4",
        "tests": [
            "tests/test_columns.py::test_code_point_classes_match_str",
            "tests/test_circuit.py::test_parse_three_qubit_sample",
        ],
    },
    {
        "id": "qc-ascii-lf-to-cr-breaks-narrowed",
        "file": CIRCUIT,
        "old": "((codes - 10) < 4)",
        "new": "((codes - 10) < 3)",
        "tests": [
            "tests/test_columns.py::test_code_point_classes_match_str",
            "tests/test_columns.py::test_parse_edge_cases_match_reference",
        ],
    },
    {
        "id": "qc-ascii-separator-breaks-narrowed",
        "file": CIRCUIT,
        "old": "((codes - 28) < 3))",
        "new": "((codes - 28) < 2))",
        "tests": [
            "tests/test_columns.py::test_code_point_classes_match_str",
        ],
    },
    {
        "id": "qc-comment-blank-shifted",
        "file": CIRCUIT,
        "old": "blank = np.repeat(hashes - np.cumsum(size) + size, size)",
        "new": "blank = np.repeat(hashes + 1 - np.cumsum(size) + size, size)",
        "tests": [
            "tests/test_circuit.py::test_parse_accepts_comments_blank_lines_and_crlf",
            "tests/test_columns.py::test_parse_edge_cases_match_reference",
        ],
    },
    {
        "id": "qc-comment-run-one-short",
        "file": CIRCUIT,
        "old": "(end - hashes)[first]",
        "new": "(end - hashes - 1)[first]",
        "tests": [
            "tests/test_circuit.py::test_parse_accepts_comments_blank_lines_and_crlf",
            "tests/test_columns.py::test_parse_edge_cases_match_reference",
        ],
    },
    # --- DP bounds and schedules (dpcore) ---------------------------------------
    {
        "id": "search-drops-prefix-at-bound",
        "file": DPCORE,
        "old": "ok &= cost <= bound",
        "new": "ok &= cost < bound",
        "tests": [
            "tests/test_dpcore.py::test_search_matches_dense_seeded",
            "tests/test_dpcore.py::test_search_gives_up_or_stops_early",
        ],
    },
    {
        "id": "upper-bound-minus-one",
        "file": DPCORE,
        "old": "    bound = _upper_bound(win, kmax, cap)\n",
        "new": "    bound = _upper_bound(win, kmax, cap) - 1\n",
        "tests": [
            "tests/test_dpcore.py::test_plan_routes_schedules",
            "tests/test_acceptance.py::test_criterion_06_complete_graph_closed_form",
        ],
    },
    {
        "id": "admissible-cut-strict",
        "file": DPCORE,
        "old": "win[0::2] + win[-1::-2] >= win[-1] - bound",
        "new": "win[0::2] + win[-1::-2] > win[-1] - bound",
        "tests": [
            "tests/test_dpcore.py::test_search_matches_dense_seeded",
            "tests/test_dpcore.py::test_bounded_schedule_matches_dense_seeded",
        ],
    },
    {
        "id": "admissible-part-size-n-minus-k",
        "file": DPCORE,
        "old": "(sizes <= min(cap, bits + 2 - kmax))",
        "new": "(sizes <= min(cap, bits + 1 - kmax))",
        "tests": [
            "tests/test_dpcore.py::test_search_matches_dense_seeded",
            "tests/test_acceptance.py::test_criterion_06_complete_graph_closed_form",
        ],
    },
    {
        "id": "level-one-cap-inclusive",
        "file": DPCORE,
        "old": "cost = np.where(pc < cap, 0, INF)",
        "new": "cost = np.where(pc <= cap, 0, INF)",
        "tests": [
            "tests/test_partitioner.py::test_capped_balanced_split",
            "tests/test_dpcore.py::test_engine_matches_scalar_reference",
        ],
    },
    {
        "id": "last-level-skips-largest-submask",
        "file": DPCORE,
        "old": "key = (akey + bkey[::-1]).min(keepdims=True)",
        "new": "key = (akey[:-1] + bkey[:0:-1]).min(keepdims=True)",
        "tests": [
            "tests/test_partitioner.py::test_dp_four_qubit_sample_k2_and_k4",
            "tests/test_acceptance.py::test_criterion_05_oracle_equivalence_sweep",
        ],
    },
    {
        "id": "search-skips-rest-cap-check",
        "file": DPCORE,
        "old": "            if least > 0:  # else any rest fits\n"
               "                ok &= used[pref] + sizes[j] >= least\n",
        "new": "",
        "tests": [
            "tests/test_dpcore.py::test_search_matches_dense_seeded",
            "tests/test_dpcore.py::test_capped_bound_routes_the_search",
            "tests/test_metamorphic.py::test_a_cap_never_lowers_the_cost",
        ],
    },
    {
        "id": "bounded-scan-skips-last-peel",
        "file": DPCORE,
        "old": "zip(akey[peels].tolist(), views)",
        "new": "zip(akey[peels].tolist()[:-1], views)",
        "tests": [
            "tests/test_dpcore.py::test_bounded_scan_matches_dense_at_every_state",
            "tests/test_dpcore.py::test_bounded_schedule_matches_dense_seeded",
        ],
    },
    # --- brute-force oracle and its guard (partitioner) --------------------------
    {
        "id": "rgs-opens-block-k-plus-one",
        "file": PARTITIONER,
        "old": "        reps = join + (nopen < k)\n",
        "new": "        reps = join + (nopen <= k)\n",
        "tests": [
            "tests/test_partitioner.py::test_rgs_rows_match_the_bell_table",
            "tests/test_partitioner.py::test_rgs_enumeration_counts",
        ],
    },
    {
        "id": "rgs-prune-keeps-one-more",
        "file": PARTITIONER,
        "old": "nopen >= k - (n - 1 - i)",
        "new": "nopen >= k - (n - i)",
        "tests": [
            "tests/test_partitioner.py::test_rgs_rows_match_the_bell_table",
            "tests/test_partitioner.py::test_oracle_examples",
        ],
    },
    {
        "id": "rgs-prune-drops-one-more",
        "file": PARTITIONER,
        "old": "nopen >= k - (n - 1 - i)",
        "new": "nopen >= k - (n - 2 - i)",
        "tests": [
            "tests/test_partitioner.py::test_rgs_rows_match_the_bell_table",
            "tests/test_partitioner.py::test_dp_equals_oracle_on_randoms",
        ],
    },
    {
        "id": "oracle-refuses-at-budget",
        "file": PARTITIONER,
        "old": "    if count > ORACLE_ROW_BUDGET:\n",
        "new": "    if count >= ORACLE_ROW_BUDGET:\n",
        "tests": [
            "tests/test_partitioner.py::test_oracle_cap",
        ],
    },
    {
        "id": "oracle-skips-width-check",
        "file": PARTITIONER,
        "old": "    if n > DEFAULT_DP_CAP:\n",
        "new": "    if False:\n",
        "tests": [
            "tests/test_partitioner.py::test_oracle_cap",
            "tests/test_cli.py::test_oracle_width_checked_against_oracle_cap",
            "tests/test_cli.py::test_width_checked_before_allocation",
        ],
    },
    # --- memo-table CSV and trace (partitioner, executor) -----------------------
    {
        "id": "csv-labels-always-quoted",
        "file": PARTITIONER,
        "old": "lambda s: f'\"{s}\"' if \",\" in s else s",
        "new": "lambda s: f'\"{s}\"'",
        "tests": [
            "tests/test_partitioner.py::test_table_csv_string_matches_csv_writer",
            "tests/test_partitioner.py::test_table_csv_shape",
        ],
    },
    {
        "id": "trace-rows-count-teleports-exclusively",
        "file": EXECUTOR,
        "old": "teleports = np.cumsum(self.is_global).tolist()",
        "new": "teleports = (np.cumsum(self.is_global) - self.is_global).tolist()",
        "tests": [
            "tests/test_executor.py::test_trace_rows_match_reference",
            "tests/test_executor.py::test_nine_gate_sample_trace",
        ],
    },
    {
        "id": "trace-json-counts-teleports-exclusively",
        "file": EXECUTOR,
        "old": "numbers[np.cumsum(trace.is_global)]",
        "new": "numbers[np.cumsum(trace.is_global) - trace.is_global]",
        "tests": [
            "tests/test_executor.py::test_trace_to_json_matches_json_dumps",
            "tests/test_cli.py::test_report_bytes_pinned",
        ],
    },
]
