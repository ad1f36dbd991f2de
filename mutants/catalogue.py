"""The mutation catalogue that ``run.py`` re-runs.

Each entry replaces the exact text ``old`` (which must occur once in
``file``) by ``new`` and names the tests that must each fail under it, as
pytest node ids. A change that moves or rewrites the text updates its entry
in the same commit; a change that adds a check adds the mutant it was
tested against. A mutant that changes two lines spans the lines between
them, kept in a constant below.
"""

BIGRAPH = "src/qcpart/bigraph.py"
CLI = "src/qcpart/cli.py"
CIRCUIT = "src/qcpart/circuit.py"
DPCORE = "src/qcpart/dpcore.py"
EXECUTOR = "src/qcpart/executor.py"
PARTITIONER = "src/qcpart/partitioner.py"

# dpcore._odd_levels between its packed peel key and the back-pointer read from it
ODD_LEVELS_BODY = (
    "    cost = np.where(pc < cap, 0, INF)  # level 1: the mask x plus qubit 0 fits the cap\n"
    "    levels = []\n"
    "    for k in range(2, kmax + 1):\n"
    "        bkey = np.where(cost < INF, (cost - wodd) << bits, _KEY_INF)\n"
    "        if last_full_only and k == kmax:\n"
    "            key = (akey + bkey[::-1]).min(keepdims=True)  # the full mask alone\n"
    "        else:\n"
    "            key = scan(akey, bkey)\n"
    "        reach = key < _KEY_REACH\n"
    "        cost = np.where(reach, wodd[-key.size:] + (key >> bits), INF)\n"
)
# dpcore._search between a prefix's cell count and its first later peel
SEARCH_CELLS = (
    "        ends = np.cumsum(counts)\n"
    "        budget -= int(ends[-1])\n"
    "        if budget < 0:\n"
    "            return None\n"
    "        least = bits + 1 - cap * (kmax - depth)  # qubits to peel so that the rest fits\n"
    "        kept, later, found = 0, 0, []\n"
    "        start = 0\n"
    "        while start < counts.size:  # chunks of at most 2^(n-1) cells\n"
    "            base = int(ends[start] - counts[start])\n"
    "            stop = max(int(np.searchsorted(ends, base + size, side=\"right\")), start + 1)\n"
    "            c = counts[start:stop]\n"
    "            pref = np.repeat(np.arange(start, stop), c)\n"
)

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
    # --- bench's K runs (cli) ---------------------------------------------------
    {
        "id": "bench-run-boundary-at-width-minus-one",
        "file": CLI,
        "old": "        inside = range(max(r.start, 1), min(r.stop, width + 1))\n"
               "        below, above = range(r.start, min(r.stop, 1)),"
               " range(max(r.start, width + 1), r.stop)\n",
        "new": "        inside = range(max(r.start, 1), min(r.stop, width))\n"
               "        below, above = range(r.start, min(r.stop, 1)),"
               " range(max(r.start, width), r.stop)\n",
        "tests": [
            "tests/test_cli.py::test_bench_writes_one_row_per_run_outside_the_width",
            "tests/test_cli.py::test_bench_ends_on_a_huge_k_range",
        ],
    },
    {
        "id": "bench-run-boundary-at-width-plus-one",
        "file": CLI,
        "old": "        inside = range(max(r.start, 1), min(r.stop, width + 1))\n"
               "        below, above = range(r.start, min(r.stop, 1)),"
               " range(max(r.start, width + 1), r.stop)\n",
        "new": "        inside = range(max(r.start, 1), min(r.stop, width + 2))\n"
               "        below, above = range(r.start, min(r.stop, 1)),"
               " range(max(r.start, width + 2), r.stop)\n",
        "tests": [
            "tests/test_cli.py::test_bench_writes_one_row_per_run_outside_the_width",
            "tests/test_cli.py::test_bench_ends_on_a_huge_k_range",
        ],
    },
    {
        "id": "bench-failed-source-row-per-value",
        "file": CLI,
        "old": "            for run in ks:\n",
        "new": "            for run in (range(k, k + 1) for k in chain.from_iterable(ks)):\n",
        "tests": [
            "tests/test_cli.py::test_bench_writes_one_row_per_run_outside_the_width",
            "tests/test_cli.py::test_bench_ends_on_a_huge_k_range",
        ],
    },
    # --- bench's size runs (cli) ------------------------------------------------
    {
        "id": "bench-sweeps-every-refused-size",
        "file": CLI,
        "old": "max(r.stop for r in ranges) if args.force else DEFAULT_DP_CAP",
        "new": "max(r.stop for r in ranges)",
        "tests": [
            "tests/test_cli.py::test_bench_writes_one_row_per_run_of_refused_sizes",
            "tests/test_cli.py::test_bench_ends_on_a_huge_size_range",
        ],
    },
    {
        "id": "bench-force-runs-refused-sizes",
        "file": CLI,
        "old": "max(r.stop for r in ranges) if args.force else DEFAULT_DP_CAP",
        "new": "DEFAULT_DP_CAP",
        "tests": [
            "tests/test_cli.py::test_bench_writes_one_row_per_run_of_refused_sizes",
        ],
    },
    {
        "id": "bench-size-run-without-note",
        "file": CLI,
        "old": "f\"{exc}{note}{_span(run)}\"",
        "new": "f\"{exc}{_span(run)}\"",
        "tests": [
            "tests/test_cli.py::test_bench_writes_one_row_per_run_of_refused_sizes",
            "tests/test_cli.py::test_bench_ends_on_a_huge_size_range",
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
    {
        "id": "qc-operand-no-overflow-fallback",
        "file": CIRCUIT,
        "old": "    return q if abs(q) < 1 << 63 else 0\n",
        "new": "    return q\n",
        "tests": [
            "tests/test_columns.py::test_parse_edge_cases_match_reference",
            "tests/test_columns.py::test_parse_matches_reference",
        ],
    },
    {
        "id": "qc-comments-never-cut",
        "file": CIRCUIT,
        "old": "    if \"#\" in text:  # blank each line's first '#' and the rest of its line\n",
        "new": "    if False:\n",
        "tests": [
            "tests/test_circuit.py::test_parse_accepts_comments_blank_lines_and_crlf",
            "tests/test_columns.py::test_parse_edge_cases_match_reference",
        ],
    },
    {
        "id": "qc-control-0-unmarked",
        "file": CIRCUIT,
        "old": "ends[(arity < 1) | (arity > 2) | (lead < 1) | two & (second < 1)] = -2",
        "new": "ends[(arity < 1) | (arity > 2) | two & (second < 1)] = -2",
        "tests": [
            # "cnot 0 3" would pass for a single-qubit gate on q3
            "tests/test_columns.py::test_parse_edge_cases_match_reference",
        ],
    },
    {
        "id": "qc-operandless-line-unmarked",
        "file": CIRCUIT,
        "old": "ends[(arity < 1) | (arity > 2) | (lead < 1) | two & (second < 1)] = -2",
        "new": "ends[(arity > 2) | (lead < 1) | two & (second < 1)] = -2",
        "tests": [
            # "cnot" then "h 1" would read the next line's operand
            "tests/test_columns.py::test_parse_matches_reference",
        ],
    },
    {
        "id": "qc-repeated-header-message-off",
        "file": CIRCUIT,
        "old": "    if label.lower() == \"qubits\":\n        return \"duplicate 'qubits' header\"\n",
        "new": "",
        "tests": [
            "tests/test_circuit.py::test_parse_duplicate_header",
            "tests/test_columns.py::test_parse_edge_cases_match_reference",
        ],
    },
    {
        "id": "qc-gate-index-off-by-one",
        "file": CIRCUIT,
        "old": "            exc.gate = i\n",
        "new": "            exc.gate = i + 1\n",
        "tests": [
            "tests/test_circuit.py::test_parse_self_loop_rejected",
            "tests/test_columns.py::test_column_checks",
            "tests/test_columns.py::test_a_bad_line_is_explained_once",
        ],
    },
    # --- the one gate checker (circuit) -----------------------------------------
    {
        "id": "qc-reports-last-bad-line",
        "file": CIRCUIT,
        "old": "            i = int(np.argmax(bad))\n",
        "new": "            i = int(bad.size - 1 - np.argmax(bad[::-1]))\n",
        "tests": [
            "tests/test_columns.py::test_parse_edge_cases_match_reference",
            "tests/test_columns.py::test_parse_matches_reference",
            "tests/test_columns.py::test_column_checks",
        ],
    },
    {
        "id": "circuit-target-range-off-by-one",
        "file": CIRCUIT,
        "old": "bad_t = (t < 0) | (t >= width)",
        "new": "bad_t = (t < 0) | (t > width)",
        "tests": [
            "tests/test_circuit.py::test_parse_out_of_range_index",
            "tests/test_columns.py::test_parse_edge_cases_match_reference",
        ],
    },
    {
        "id": "circuit-label-pass-skipped",
        "file": CIRCUIT,
        "old": "        if not fine:  # flag the gates whose label is refused\n",
        "new": "        if False:\n",
        "tests": [
            "tests/test_circuit.py::test_circuit_rejects_labels_that_break_the_text",
            "tests/test_circuit.py::test_circuit_rejects_the_header_word",
            "tests/test_columns.py::test_parse_edge_cases_match_reference",
        ],
    },
    {
        "id": "circuit-labels-after-rows",
        "file": CIRCUIT,
        "old": "        if not fine:  # flag the gates whose label is refused\n",
        "new": "        if not fine and not bad.any():\n",
        "tests": [
            "tests/test_columns.py::test_column_checks",
            "tests/test_columns.py::test_parse_edge_cases_match_reference",
        ],
    },
    {
        "id": "circuit-header-word-accepted",
        "file": CIRCUIT,
        "old": "    return \"is reserved for the header\" if label.lower() == \"qubits\" else \"\"\n",
        "new": "    return \"\"\n",
        "tests": [
            "tests/test_circuit.py::test_circuit_rejects_the_header_word",
            "tests/test_columns.py::test_parse_edge_cases_match_reference",
        ],
    },
    # --- circuit and graph records (circuit, bigraph) ---------------------------
    {
        "id": "circuit-equality-ignores-name",
        "file": CIRCUIT,
        "old": "        return ((self.width, self.labels, self.name) =="
               " (other.width, other.labels, other.name)\n",
        "new": "        return ((self.width, self.labels) == (other.width, other.labels)\n",
        "tests": [
            "tests/test_columns.py::test_every_constructor_gives_one_circuit",
            "tests/test_columns.py::test_replace_keeps_the_columns_and_rechecks_them",
        ],
    },
    {
        "id": "graph-equality-ignores-width",
        "file": BIGRAPH,
        "old": "        return self.num_qubits == other.num_qubits and np.array_equal(",
        "new": "        return np.array_equal(",
        "tests": [
            "tests/test_bigraph.py::test_graph_equality_is_width_and_ends",
        ],
    },
    {
        "id": "graph-pairs-drop-control-0",
        "file": BIGRAPH,
        "old": "        return self.ends[self.ends[:, 0] >= 0]\n",
        "new": "        return self.ends[self.ends[:, 0] > 0]\n",
        "tests": [
            "tests/test_bigraph.py::test_graph_matches_edge_tuple_reference",
            "tests/test_bigraph.py::test_weight_matrix_four_qubit_sample",
        ],
    },
    {
        "id": "weight-matrix-max-not-sum",
        "file": BIGRAPH,
        "old": "    return WeightMatrix(m + m.T)\n",
        "new": "    return WeightMatrix(np.maximum(m, m.T))\n",
        "tests": [
            "tests/test_bigraph.py::test_weight_matrix_four_qubit_sample",
            "tests/test_bigraph.py::test_weight_matrix_counts_two_qubit_gates",
            "tests/test_partitioner.py::test_oracle_examples",
        ],
    },
    # --- DP engine (dpcore) -----------------------------------------------------
    {
        "id": "packed-key-prefers-highest-tie",
        "file": DPCORE,
        "old": "    akey = np.where((pc >= 1) & (pc <= cap), (-win[0::2] << bits) + masks,"
               " _KEY_INF)\n" + ODD_LEVELS_BODY +
               "        levels.append((cost, np.where(reach, (key & (size - 1)) << 1, 0)))\n",
        "new": "    akey = np.where((pc >= 1) & (pc <= cap), (-win[0::2] << bits)"
               " + masks[::-1], _KEY_INF)\n" + ODD_LEVELS_BODY +
               "        levels.append((cost, np.where(reach, (size - 1 - (key & (size - 1))) << 1,"
               " 0)))\n",
        "tests": [
            "tests/test_dpcore.py::test_engine_matches_scalar_reference",
            "tests/test_partitioner.py::test_table_choices_are_lowest_optimal_submasks",
            "tests/test_cli.py::test_report_bytes_pinned",
        ],
    },
    {
        "id": "convolve-skips-odd-high-blocks",
        "file": DPCORE,
        "old": "yield from ((th, whole) for th in range(1 << (bits - low)))",
        "new": "yield from ((th, whole) for th in range(0, 1 << (bits - low), 2))",
        "tests": [
            "tests/test_dpcore.py::test_engine_matches_scalar_reference",
            "tests/test_dpcore.py::test_bounded_scan_matches_dense_at_every_state",
        ],
    },
    {
        "id": "convolve-output-shared-across-solves",
        "file": DPCORE,
        "old": "    out = np.full(1 << bits, _KEY_INF)\n",
        "new": "    out = _scratch.__dict__.setdefault(bits, np.full(1 << bits, _KEY_INF))\n",
        "tests": [
            "tests/test_dpcore.py::test_full_tables_share_no_scratch_state",
            "tests/test_dpcore.py::test_engine_matches_scalar_reference",
        ],
    },
    {
        "id": "search-extends-by-every-peel",
        "file": DPCORE,
        "old": "        counts = peels.size - 1 - last\n" + SEARCH_CELLS +
               "            first = ends[start:stop] - c - last[start:stop] - 1",
        "new": "        counts = np.full(last.size, peels.size)\n" + SEARCH_CELLS +
               "            first = ends[start:stop] - c",
        "tests": [
            # it keeps every cost, which is all the MILP cases check
            "tests/test_dpcore.py::test_bounded_schedule_matches_dense_seeded",
        ],
    },
    # --- the scan over a peel set (dpcore) --------------------------------------
    {
        "id": "scan-whole-table-for-incomplete-low-set",
        "file": DPCORE,
        "old": "        complete = t.size == (1 << low) - (th == 0)\n",
        "new": "        complete = t.size >= (1 << low) - 1\n",
        "tests": [
            "tests/test_dpcore.py::test_scan_over_a_peel_set_matches_brute_force",
        ],
    },
    {
        "id": "scan-block-0-needs-the-empty-peel",
        "file": DPCORE,
        "old": "        complete = t.size == (1 << low) - (th == 0)\n",
        "new": "        complete = t.size == 1 << low\n",
        "tests": [
            # exact either way; the test counts block 0 scanned whole
            "tests/test_dpcore.py::test_scan_tables_follow_the_low_peels",
        ],
    },
    {
        "id": "scan-shares-block-0-whole-table",
        "file": DPCORE,
        "old": "        if not complete and uses[key] > 1:",
        "new": "        if uses[key] > 1:",
        "tests": [
            "tests/test_dpcore.py::test_scan_over_a_peel_set_matches_brute_force",
            "tests/test_dpcore.py::test_scan_tables_follow_the_low_peels",
        ],
    },
    {
        "id": "scan-empty-unions-unmasked",
        "file": DPCORE,
        "old": "            part[empty] = _KEY_INF",
        "new": "            pass",
        "tests": [
            "tests/test_dpcore.py::test_scan_over_a_peel_set_matches_brute_force",
            "tests/test_dpcore.py::test_bounded_schedule_matches_dense_seeded",
        ],
    },
    {
        "id": "scan-blocks-without-peels",
        "file": DPCORE,
        "old": "    for th, t, key in zip(highs.tolist(), lows, keys):\n",
        "new": "    yield from ((th, whole) for th in range(1 << (bits - low)) if th not in highs)\n"
               "    for th, t, key in zip(highs.tolist(), lows, keys):\n",
        "tests": [
            "tests/test_dpcore.py::test_scan_over_a_peel_set_matches_brute_force",
        ],
    },
    {
        "id": "scan-shares-tables-by-size",
        "file": DPCORE,
        "old": "    keys = [t.tobytes() for t in lows]\n",
        "new": "    keys = [t.size for t in lows]\n",
        "tests": [
            "tests/test_dpcore.py::test_scan_over_a_peel_set_matches_brute_force",
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
        "id": "admissible-sizes-left-uint8",
        "file": DPCORE,
        "old": "    return peels[keep], sizes[keep].astype(np.int64)",
        "new": "    return peels[keep], sizes[keep]",
        "tests": [
            # plan's 1 << (bits - sizes) wraps in uint8, so the search budget shrinks
            "tests/test_dpcore.py::test_plan_routes_schedules",
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
    # --- the result and its table (partitioner) ----------------------------------
    {
        "id": "ratio-over-part-count",
        "file": PARTITIONER,
        "old": "Fraction(self.cost, 2 * self.assignment.n)",
        "new": "Fraction(self.cost, 2 * self.assignment.k)",
        "tests": [
            "tests/test_partitioner.py::test_ratio_r_is_cost_over_twice_the_width",
            "tests/test_executor.py::test_metrics_exact_rational",
            "tests/test_acceptance.py::test_criterion_08_ratio_metric",
            "tests/test_cli.py::test_report_bytes_pinned",
        ],
    },
    {
        "id": "table-width-off-by-one",
        "file": PARTITIONER,
        "old": "self.n = self._end.bit_length() - 1",
        "new": "self.n = self._end.bit_length() - 2",
        "tests": [
            "tests/test_partitioner.py::test_table_from_levels_alone_pinned",
            "tests/test_partitioner.py::test_table_reads_match_the_level_arrays",
            "tests/test_partitioner.py::test_table_bounds_checking",
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
        "id": "trace-global-parts-unsorted",
        "file": EXECUTOR,
        "old": "(a, b) if a < b else (b, a)",
        "new": "(a, b)",
        "tests": [
            "tests/test_executor.py::test_trace_rows_match_reference",
            "tests/test_columns.py::test_trace_matches_reference",
        ],
    },
    {
        "id": "report-field-indent-one-space",
        "file": CLI,
        "old": "body = json.dumps(value, indent=2).replace(\"\\n\", \"\\n  \")",
        "new": "body = json.dumps(value, indent=2).replace(\"\\n\", \"\\n \")",
        "tests": [
            "tests/test_cli.py::test_report_bytes_pinned",
        ],
    },
    {
        "id": "trace-json-rendering-unescaped",
        "file": EXECUTOR,
        "old": "{encode_basestring_ascii(rendering)}",
        "new": "\"{rendering}\"",
        "tests": [
            "tests/test_executor.py::test_trace_to_json_matches_json_dumps",
            "tests/test_cli.py::test_report_bytes_pinned",
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
