"""Expected values frozen from oracle-first runs.

Scalars came from numpy.linalg.eigvalsh on hand-transcribed edge lists and
from the labeled-filter class counter, both run before the corresponding
package code existed.  Regression-only entries (first computed by the package
itself, frozen afterwards) are marked as such.
"""

# spectral radii, eigvalsh
MU_NET = 2.414213562373095          # = 1 + sqrt(2)
MU_L = 2.6935252022278737
MU_M = 2.444234390187246
MU_STAR_9 = 2.8284271247461903      # = sqrt(8)
MU_PENDANT_7 = 3.23606797749979     # three-pendant clique graph, n = 7

# isomorphism-class counts, labeled-filter oracle:
# n -> (all graphs, connected, connected claw-free)
COUNTS = {
    1: (1, 1, 1),
    2: (2, 1, 1),
    3: (4, 2, 2),
    4: (11, 6, 5),
    5: (34, 21, 14),
    6: (156, 112, 50),
    7: (1044, 853, 191),
}

# regression-only (first run of the package's own enumerator, cross-checked
# against published counts for all/connected graphs on 8 vertices)
ALL_8 = 12346
CONNECTED_8 = 11117
CONNECTED_CLAW_FREE_8 = 881
CONNECTED_CLAW_FREE_9 = 4494
TWO_CONNECTED_CLAW_FREE = {8: 619, 9: 3332}

# canonical graph6 anchors (package canonical_form, regression-only)
G6_NET = "E@UW"
G6_PENDANT_7 = "F?L[w"
G6_PENDANT_8 = "G?Cy{{"
G6_GRAPH_L = "F@QHw"
G6_HUB_SPLIT_7 = "F@K~w"     # K_1 v (K_4 + 2K_1)
G6_HUB_SPLIT_8 = "G@Kx~{"    # K_1 v (K_5 + 2K_1)
G6_SPLIT_38 = "G?B~~{"       # K_3 v 5K_1, the n=8 equality-case graph

# regression-only: sha256 of the newline-joined graph6 sequence that
# exhaustive_list(n, chain) returns, taken from the package's enumerator
# before the augmentation pre-filter existed.  Pins the output order, not
# just the set of classes.
EXHAUSTIVE_ORDER_SHA256 = {
    (7, ("connected", "claw-free")):
        "509029dfb78001251f76af7b3503c9491e78483f516edca95bea30b8823f64d7",
    (8, ("connected", "claw-free")):
        "8436a2cea915ba7b3f12949ba8553ed00682d4cb6439cd3764e7723cd6e2970e",
    (6, ()):
        "1f55c2ed021b730da8b90f2569a18fef8b4682543c17a57fd36271623ecc3aba",
    (6, ("connected",)):
        "9b08438ae608b07b878f5f4e5fa72fec4ea13fcf254d059592a4dd9933a408e1",
    (9, ("connected", "claw-free")):
        "2bb2789b32899a95f8441dfb87e8ff4b1c7397ea19c729ffd0fbbde49359972a",
    # the pattern-filtered chains, 811 and 880 classes, taken at commit
    # 1cbae96, before the key test moved ahead of the pattern filters
    (8, ("connected", "claw-free", "net-free")):
        "5659fcd298c92f076f6986fde9f851d740c04a34739f239a04d5371272537c0e",
    (8, ("connected", "claw-free", "m-free")):
        "4d67f4f943b700ab727808af1800b97023bdc9ca279d2d2b991eec1bc9be1370",
    # the same chains at order 9, 3,932 and 4,467 classes, taken at commit
    # 4aaf151, before the pattern search was anchored at the new vertex
    (9, ("connected", "claw-free", "net-free")):
        "2eb98b284cfb87295daba5bc90167c83b9397a6257a3fcc3b6029576ec254145",
    (9, ("connected", "claw-free", "m-free")):
        "daf3815f4505c98514a764d7075c89eebacca3a34160fa4ac8940d614bb8f305",
}

# regression-only: the order-10 level of exhaustive_orders(("connected",
# "claw-free"), 10, 10), one order past MAX_EXHAUSTIVE.  Class count and
# sha256 of its newline-joined graph6 sequence, both taken from the
# package's enumerator before the twin pruning existed (commit 155cbdc).
CONNECTED_CLAW_FREE_10 = 26389
ORDER_10_SHA256 = "523435df72b2563fff7a8142b7e99445d460f18fb15856a4095aa7119fbd5d06"

# regression-only: sha256 of the newline-joined lines that
# test_enumerate._sampler_grid_lines gives (one graph6 per grid point, or
# "<graph6> stuck <m>", m the edge count it reached, for a stuck run), taken from the package's
# sampler before it kept its edge list between deletions.  38 of the 100
# grid points are stuck.
SAMPLER_GRID_SHA256 = "b0b6b79e3fc8a6e2f2790013acfe17281bd68c1f820b515b889cc4a744cbafa8"

# regression-only: sha256 of the stdout of `clawtrace enumerate` with each
# argument list, taken from the package's sampled source before it became a
# plain function (commit c63c23a).  The first makes 22 draws, 12 refused by
# the chain and 8 stuck, so it pins the seed + attempts walk.
SAMPLE_STREAM_SHA256 = {
    ("--n", "12", "--mode", "sample", "--count", "10", "--seed", "4", "--density", "0.3",
     "--predicates", "connected", "claw-free", "two-connected"):
        "616afd04aa85f93b83c340598d821308588d22653d7aca5986117939945cee5b",
    ("--n", "30", "--mode", "sample", "--count", "20", "--seed", "5", "--density", "0.3"):
        "a0c2ccd7cdb940e8c99eec9663ddd42b54406e8813cc36af03a4c2a75764e135",
}

# regression-only: sha256 of json.dumps of the list of to_dict() reports,
# elapsed_ms removed, that test_verify.FROZEN_RUNS produces, taken from the
# package's verifier before the registry declared each hypothesis once as a
# signed margin (commit d55c687).  Pins hunt near-miss margins, borderline
# lists and exception labels across every numeric theorem.
FROZEN_REPORTS_SHA256 = "ed1f2dc896de1271bfe885b0d95cbf9820e2ccade92d06fa37a045fe82b4a54f"

# regression-only: sha256 of json.dumps of [canonical_labeling(g) for g in
# test_canon.labeling_corpus()], taken from the package's labeller before
# refinement counted only against the cells that just split (commit
# cf3aa1b).  Pins the labels themselves, which the removal rule reads and
# every printed canonical form is built from.
CANONICAL_LABELING_SHA256 = "8bf1ac18cd0423392654f4bbf65101b551083fc28a7b939c94c579ab32764c79"

# regression-only: sha256 of the checkpoint file that
# exhaustive_list(8, checkpoint=path) writes, header and one line per
# parent of order 7, taken from the package's enumerator before the sweep
# kept its levels in memory (commit fe70ad8).  Pins the format v2 bytes.
CHECKPOINT_8_SHA256 = "e6679c0e995535dfa64fb6eafe7a0c5adbf962da110b4cb61501041f88c9bef8"

# regression-only: sha256 of json.dumps of the list of to_dict() reports,
# elapsed_ms removed, that test_verify.MARGIN_FREE_RUNS produces, taken from
# the package's verifier while the registry still gave LBZ a separate
# structural hypothesis and DGJ an explicit conclusion (commit 1a7e68c).
# Pins the statements that have no margin, which FROZEN_RUNS does not reach.
MARGIN_FREE_REPORTS_SHA256 = "a685f4ced3349c0340de8d03bf8f8d2db4d8ec920d325db3acd0da24108297d1"

# regression-only: sha256 of json.dumps of the list of [connected,
# components, blocks, cut_vertices, block_chain] that cli._analyze_one gives
# for each graph of exhaustive_orders((), 1, 6), all 208 classes of orders
# 1..6 in sweep order, the disconnected ones included, taken from the
# package while blocks came from a Hopcroft-Tarjan DFS (commit fa497be).
# The float fields are left out: their last ulp may differ across LAPACK
# builds.
ANALYZE_STRUCTURE_SHA256 = "77c68b888450345fab265e78f45019318c7f8878e54b82ade21238151324ede6"

# regression-only: sha256 of the stdout of `clawtrace closure - --format
# json` with test_cli._closure_corpus on stdin: the 1,145 connected
# claw-free classes of orders 1..8 in sweep order, then every tenth of the
# 10,000 seeded samples of acceptance test 05.  Pins each step trace (the
# vertex completed and the pairs added, in order), not only the closed
# graph.  Taken at commit 4aaf151, while the closure rebuilt the graph
# after every step.
CLOSURE_TRACE_SHA256 = "0d2431f137d98222237b6c95cee2a004263fe20002182ff900dce222b4e4778e"
