"""Command line front end for the pipeline stages.

Exit codes: 0 success, 2 validation error, 3 data error, 4 missing
upstream artifact.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .errors import DataError, DependencyError, ValidationError
from .pipeline import STAGES, load_config, run

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DATA = 3
EXIT_DEPENDENCY = 4

DEFAULT_CONFIG = """\
[pipeline]
seed = 7

[paths]
edges = edges.tsv
documents = documents.jsonl

[ingest]
undirected = false

[graph]
dim = 32
epochs = 20
margin = 0.15
learning_rate = 0.1
negatives_per_edge = 10
measure = dot
holdout_fraction = 0.05
eval_negatives = 50

[sampling]
k_pos = 10
k_hard = 120
c_pos = 5
c_hard = 2
c_easy = 3
pos_strategy = knn
hard_strategy = knn
easy_strategy = filtered_random
n_queries = 0

[encoder]
hidden_dim = 64
out_dim = 32
epochs = 2
learning_rate = 0.1
effective_batch = 32
slack = 1.0
bias_only = false

[probe]
epochs = 300
learning_rate = 0.5

[eval]
ranking_task = ranking.jsonl
labels = labels.jsonl

[fixture]
enabled = true
nodes = 200
blocks = 2
p_in = 0.10
p_out = 0.01
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbcontrast",
        description=(
            "Train citation-graph embeddings, mine neighborhood-contrastive "
            "triples, train a document encoder, and evaluate it."
        ),
    )
    sub = parser.add_subparsers(dest="stage", required=True)
    helps = {
        "fixture": "generate the bundled synthetic corpus (and a config)",
        "ingest": "read the edge file into a graph snapshot",
        "graph-train": "train node embeddings and run link prediction",
        "mine": "mine contrastive triples from the embeddings",
        "encode-train": "train the document encoder on the triples",
        "eval": "compute ranking/classification metrics and reports",
        "all": "run every stage in order",
    }
    for name in (*STAGES, "all"):
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", type=Path, help="pipeline config file (INI)")
        p.add_argument("--stage-dir", type=Path, help="artifact directory override")
        p.add_argument("--seed", type=int, help="global seed override")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        config_path = args.config
        if config_path is None:
            if args.stage == "fixture" and args.stage_dir is not None:
                # bootstrap: write a default config next to the fixture data
                try:
                    args.stage_dir.mkdir(parents=True, exist_ok=True)
                except (FileExistsError, NotADirectoryError):
                    raise ValidationError(
                        f"work directory {args.stage_dir} is not a directory") from None
                config_path = args.stage_dir / "config.ini"
                if config_path.exists():
                    print(f"fixture: using existing config {config_path}")
                else:
                    config_path.write_text(DEFAULT_CONFIG, encoding="utf-8")
                    print(f"fixture: wrote default config {config_path}")
            else:
                raise ValidationError("--config is required (or use fixture --stage-dir)")
        cfg = load_config(config_path, stage_dir=args.stage_dir, seed=args.seed)
        run(args.stage, cfg)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DependencyError as exc:
        print(f"dependency error: {exc}", file=sys.stderr)
        return EXIT_DEPENDENCY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
