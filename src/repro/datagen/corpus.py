"""Embedded "real" seed data sets.

The paper's veracity pipeline (Figure 3, step 2) learns data models from
*real* data sets.  Real web-scale corpora (Wikipedia text, the Facebook
social graph, retail transaction logs) cannot be shipped inside this
repository, so this module provides small embedded proxies with the
structural properties the models must capture:

* a **text corpus** with genuine multi-topic structure (distinct topical
  vocabularies mixed per document) so an LDA model has topics to discover;
* a **social graph** with a heavy-tailed degree distribution, grown by
  preferential attachment from a deterministic seed;
* **retail tables** (customers, products, orders) with skewed categorical
  and numeric columns;
* **web-log templates** (paths, status codes, user agents) used by the
  semi-structured generators.

Every construction here is deterministic: calling a ``load_*`` function
twice returns identical data, which keeps tests and benchmarks stable.
The substitution is documented in DESIGN.md (Section 2).
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.datagen.base import DataSet, DataType

# ---------------------------------------------------------------------------
# Text corpus: four topical vocabularies.
# ---------------------------------------------------------------------------

TOPIC_VOCABULARIES: dict[str, list[str]] = {
    "sports": [
        "game", "team", "season", "player", "coach", "score", "league",
        "match", "win", "championship", "goal", "tournament", "stadium",
        "defense", "offense", "playoff", "referee", "trophy", "fans",
        "training", "injury", "transfer", "captain", "striker", "keeper",
        "penalty", "derby", "fixture", "substitute", "victory",
    ],
    "technology": [
        "software", "data", "system", "network", "computer", "algorithm",
        "cloud", "server", "database", "storage", "processor", "memory",
        "code", "platform", "hardware", "internet", "security", "protocol",
        "compiler", "kernel", "latency", "throughput", "cluster", "query",
        "benchmark", "cache", "thread", "binary", "encryption", "bandwidth",
    ],
    "finance": [
        "market", "stock", "price", "investor", "bank", "fund", "trade",
        "profit", "revenue", "shares", "economy", "inflation", "interest",
        "bond", "currency", "dividend", "portfolio", "asset", "credit",
        "loan", "capital", "earnings", "merger", "hedge", "equity",
        "futures", "broker", "exchange", "deficit", "liquidity",
    ],
    "science": [
        "research", "study", "experiment", "theory", "cell", "energy",
        "species", "climate", "laboratory", "hypothesis", "molecule",
        "protein", "gene", "particle", "quantum", "evolution", "neuron",
        "telescope", "fossil", "bacteria", "chemistry", "physics",
        "biology", "astronomy", "vaccine", "enzyme", "galaxy", "isotope",
        "catalyst", "genome",
    ],
}

#: Connective words shared across all topics (stop-word-like background).
BACKGROUND_WORDS: list[str] = [
    "the", "of", "and", "to", "in", "that", "for", "with", "was", "on",
    "new", "more", "has", "this", "first", "after", "also", "its",
]

_CORPUS_SEED = 20140404  # deterministic; proxies a fixed "real" corpus


def load_text_corpus(num_documents: int = 240, words_per_document: int = 80) -> DataSet:
    """The embedded multi-topic text corpus.

    Each document draws a topic mixture concentrated on one dominant topic
    (as real news articles do), then samples words from topic vocabularies
    with a Zipf-like within-topic rank bias plus background connectives.
    """
    rng = np.random.default_rng(_CORPUS_SEED)
    topics = list(TOPIC_VOCABULARIES)
    # One topic-mixture CDF per dominant topic, built the way
    # ``rng.choice(p=mixture)`` builds it, so ``bisect_right`` on one
    # ``rng.random()`` picks the topic that call picked.
    mixture_cdfs: list[list[float]] = []
    for dominant in range(len(topics)):
        mixture = np.full(len(topics), 0.1 / (len(topics) - 1))
        mixture[dominant] = 0.9
        cdf = mixture.cumsum()
        cdf /= cdf[-1]
        mixture_cdfs.append(cdf.tolist())
    documents: list[str] = []
    for doc_index in range(num_documents):
        mixture_cdf = mixture_cdfs[doc_index % len(topics)]
        words: list[str] = []
        for _ in range(words_per_document):
            if rng.random() < 0.25:
                words.append(BACKGROUND_WORDS[int(rng.integers(len(BACKGROUND_WORDS)))])
                continue
            topic = topics[bisect_right(mixture_cdf, rng.random())]
            vocabulary = TOPIC_VOCABULARIES[topic]
            # Zipf-like bias towards low-rank (frequent) words in the topic.
            rank = int(min(rng.zipf(1.6) - 1, len(vocabulary) - 1))
            words.append(vocabulary[rank])
        documents.append(" ".join(words))
    return DataSet(
        name="embedded-text-corpus",
        data_type=DataType.TEXT,
        records=documents,
        metadata={"topics": topics, "source": "embedded proxy corpus"},
    )


# ---------------------------------------------------------------------------
# Social graph: preferential attachment from a deterministic seed clique.
# ---------------------------------------------------------------------------

_GRAPH_SEED = 19980904


def load_social_graph(num_vertices: int = 400, edges_per_vertex: int = 3) -> DataSet:
    """The embedded social-graph proxy (heavy-tailed degree distribution).

    Grown by preferential attachment (Barabási–Albert) from a 5-clique,
    which yields the power-law-like degree distribution that real social
    graphs (e.g. the Facebook graph behind LinkBench) exhibit.
    """
    rng = np.random.default_rng(_GRAPH_SEED)
    edges: list[tuple[int, int]] = []
    attachment: list[int] = []  # vertex repeated once per incident edge
    clique = 5
    for u in range(clique):
        for v in range(u + 1, clique):
            edges.append((u, v))
            attachment.extend((u, v))
    for new_vertex in range(clique, num_vertices):
        targets: set[int] = set()
        while len(targets) < min(edges_per_vertex, new_vertex):
            targets.add(attachment[int(rng.integers(len(attachment)))])
        for target in sorted(targets):
            edges.append((new_vertex, target))
            attachment.extend((new_vertex, target))
    return DataSet(
        name="embedded-social-graph",
        data_type=DataType.GRAPH,
        records=edges,
        metadata={
            "num_vertices": num_vertices,
            "model": "preferential attachment",
            "source": "embedded proxy graph",
        },
    )


# ---------------------------------------------------------------------------
# Retail tables.
# ---------------------------------------------------------------------------

FIRST_NAMES = [
    "alice", "bob", "carol", "david", "erin", "frank", "grace", "henry",
    "irene", "jack", "karen", "liam", "mona", "nolan", "olivia", "peter",
    "quinn", "rosa", "sam", "tina", "umar", "vera", "wade", "xena",
    "yusuf", "zoe",
]

PRODUCT_CATEGORIES = [
    "electronics", "books", "clothing", "home", "sports", "toys",
    "grocery", "beauty", "automotive", "garden",
]

COUNTRIES = ["us", "uk", "de", "cn", "in", "br", "jp", "fr", "ca", "au"]

_TABLE_SEED = 20091207


def load_retail_tables(
    num_customers: int = 200, num_products: int = 100, num_orders: int = 600
) -> dict[str, DataSet]:
    """The embedded retail tables: customers, products, and orders.

    Order quantities are Zipf-skewed across products and customers, the
    skew a MUDD-style table generator must learn to reproduce.
    """
    rng = np.random.default_rng(_TABLE_SEED)
    customers = [
        (
            cid,
            f"{FIRST_NAMES[cid % len(FIRST_NAMES)]}_{cid}",
            COUNTRIES[int(rng.integers(len(COUNTRIES)))],
            int(rng.integers(18, 80)),
        )
        for cid in range(num_customers)
    ]
    products = [
        (
            pid,
            f"product_{pid}",
            PRODUCT_CATEGORIES[pid % len(PRODUCT_CATEGORIES)],
            round(float(rng.lognormal(3.0, 1.0)), 2),
        )
        for pid in range(num_products)
    ]
    orders = []
    for oid in range(num_orders):
        customer = int(min(rng.zipf(1.4) - 1, num_customers - 1))
        product = int(min(rng.zipf(1.3) - 1, num_products - 1))
        quantity = int(rng.integers(1, 6))
        day = int(rng.integers(0, 365))
        orders.append((oid, customer, product, quantity, day))
    schemas = {
        "customers": ("customer_id", "name", "country", "age"),
        "products": ("product_id", "name", "category", "price"),
        "orders": ("order_id", "customer_id", "product_id", "quantity", "day"),
    }
    rows = {"customers": customers, "products": products, "orders": orders}
    return {
        table: DataSet(
            name=f"embedded-retail-{table}",
            data_type=DataType.TABLE,
            records=rows[table],
            metadata={"schema": schemas[table], "source": "embedded proxy tables"},
        )
        for table in schemas
    }


# ---------------------------------------------------------------------------
# Web-log templates.
# ---------------------------------------------------------------------------

WEB_PATHS = [
    "/", "/index.html", "/search", "/product", "/cart", "/checkout",
    "/login", "/logout", "/profile", "/api/v1/items", "/api/v1/orders",
    "/static/site.css", "/static/app.js", "/help", "/about",
]

HTTP_METHODS = ["GET", "GET", "GET", "GET", "POST", "PUT", "DELETE"]

STATUS_CODES = [200, 200, 200, 200, 200, 301, 304, 404, 500]

USER_AGENTS = [
    "Mozilla/5.0 (X11; Linux x86_64)",
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64)",
    "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_15)",
    "curl/7.88.1",
    "python-requests/2.31",
    "Googlebot/2.1",
]
