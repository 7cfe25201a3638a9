"""Large-scale learning workload: data-parallel MLP training (§5.2 gap).

"… applications such as large-scale deep learning algorithms [are] not
being considered."  This workload trains a small multi-layer perceptron
(one tanh hidden layer + softmax, from scratch in numpy) with
**data-parallel synchronous SGD on the MapReduce substrate**: each epoch
is one job whose map tasks compute gradients over their input split and
whose reducer averages them — the parameter-averaging scheme
MapReduce-era distributed learning actually used.  The pattern is the
paper's iterative-operation pattern: the epoch count depends on a
runtime loss-improvement condition.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.errors import ExecutionError
from repro.core.operations import operations
from repro.core.patterns import MLP_STOP, IterativeOperationPattern
from repro.datagen.base import DataSet, DataType
from repro.engines.base import CostCounters
from repro.engines.mapreduce import JobConf, MapReduceEngine, MapReduceJob
from repro.workloads.base import (
    ApplicationDomain,
    Workload,
    WorkloadCategory,
    WorkloadResult,
)


class _Mlp:
    """A tiny two-layer MLP with explicit forward/backward passes."""

    def __init__(self, inputs: int, hidden: int, classes: int, seed: int) -> None:
        rng = np.random.default_rng(seed)
        scale_one = 1.0 / np.sqrt(inputs)
        scale_two = 1.0 / np.sqrt(hidden)
        self.w1 = rng.normal(0.0, scale_one, (inputs, hidden))
        self.b1 = np.zeros(hidden)
        self.w2 = rng.normal(0.0, scale_two, (hidden, classes))
        self.b2 = np.zeros(classes)

    def parameters(self) -> tuple[np.ndarray, ...]:
        return (self.w1, self.b1, self.w2, self.b2)

    def set_parameters(self, parameters: tuple[np.ndarray, ...]) -> None:
        self.w1, self.b1, self.w2, self.b2 = parameters

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        hidden = np.tanh(x @ self.w1 + self.b1)
        logits = hidden @ self.w2 + self.b2
        logits = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        probabilities = exp / exp.sum(axis=1, keepdims=True)
        return hidden, probabilities

    def loss_and_gradients(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[float, tuple[np.ndarray, ...]]:
        hidden, probabilities = self.forward(x)
        count = len(x)
        loss = float(
            -np.log(probabilities[np.arange(count), y] + 1e-12).mean()
        )
        delta_out = probabilities
        delta_out[np.arange(count), y] -= 1.0
        delta_out /= count
        grad_w2 = hidden.T @ delta_out
        grad_b2 = delta_out.sum(axis=0)
        delta_hidden = (delta_out @ self.w2.T) * (1.0 - hidden**2)
        grad_w1 = x.T @ delta_hidden
        grad_b1 = delta_hidden.sum(axis=0)
        return loss, (grad_w1, grad_b1, grad_w2, grad_b2)

    def predict(self, x: np.ndarray) -> np.ndarray:
        _, probabilities = self.forward(x)
        return probabilities.argmax(axis=1)


class MlpClassificationWorkload(Workload):
    """Synchronous data-parallel MLP training as iterative MapReduce."""

    name = "mlp-classification"
    domain = ApplicationDomain.DEEP_LEARNING
    category = WorkloadCategory.OFFLINE_ANALYTICS
    data_type = DataType.TABLE
    abstract_operations = tuple(operations("transform", "classify"))
    pattern = IterativeOperationPattern(
        operations("transform", "classify"), MLP_STOP
    )

    def run_mapreduce(
        self,
        engine: MapReduceEngine,
        dataset: DataSet,
        hidden_units: int = 16,
        learning_rate: float = 0.5,
        max_epochs: int | None = None,
        min_loss_improvement: float | None = None,
        train_fraction: float = 0.7,
        seed: int = 0,
        **params: Any,
    ) -> WorkloadResult:
        rule = self.pattern.stopping_condition
        if max_epochs is None:
            max_epochs = rule.max_iterations
        if min_loss_improvement is None:
            min_loss_improvement = rule.tolerance
        features, labels = self._extract(dataset)
        if len(features) < 10:
            raise ExecutionError("need at least 10 rows to train an MLP")
        split = max(1, int(len(features) * train_fraction))
        train_x, test_x = features[:split], features[split:]
        train_y, test_y = labels[:split], labels[split:]
        if len(test_x) == 0:
            raise ExecutionError("not enough rows to hold out a test set")
        classes = int(labels.max()) + 1

        # Standardise features on training statistics.
        mean = train_x.mean(axis=0)
        std = train_x.std(axis=0)
        std[std == 0] = 1.0
        train_x = (train_x - mean) / std
        test_x = (test_x - mean) / std

        model = _Mlp(train_x.shape[1], hidden_units, classes, seed)
        total_cost = CostCounters()
        simulated = wall = 0.0
        previous_loss = float("inf")
        epochs = 0
        losses: list[float] = []

        while epochs < max_epochs:
            parameters = model.parameters()

            def gradient_map(split_id: int, indexes: np.ndarray):
                shard_model = _Mlp(
                    train_x.shape[1], hidden_units, classes, seed
                )
                shard_model.set_parameters(parameters)
                loss, gradients = shard_model.loss_and_gradients(
                    train_x[indexes], train_y[indexes]
                )
                yield "update", (len(indexes), loss, gradients)

            def average_reduce(key: str, shards: list[tuple]):
                total = sum(count for count, _, _ in shards)
                loss = sum(count * loss for count, loss, _ in shards) / total
                averaged = tuple(
                    sum((count / total) * grads[i] for count, _, grads in shards)
                    for i in range(4)
                )
                yield key, (loss, averaged)

            splits = np.array_split(np.arange(len(train_x)), 4)
            job = MapReduceJob(
                f"mlp-epoch-{epochs}", gradient_map, average_reduce,
                conf=JobConf(num_map_tasks=4, num_reduce_tasks=1,
                             sort_keys=False),
            )
            result = engine.run(job, list(enumerate(splits)))
            (_, (loss, gradients)), = result.output
            model.set_parameters(tuple(
                parameter - learning_rate * gradient
                for parameter, gradient in zip(model.parameters(), gradients)
            ))
            total_cost.merge(result.cost)
            simulated += result.simulated_seconds
            wall += result.wall_seconds
            losses.append(loss)
            epochs += 1
            if previous_loss - loss < min_loss_improvement and epochs >= 5:
                break
            previous_loss = loss

        predictions = model.predict(test_x)
        accuracy = float((predictions == test_y).mean())
        return WorkloadResult(
            workload=self.name,
            engine=engine.name,
            output={"accuracy": accuracy, "loss_curve": losses},
            records_in=dataset.num_records,
            records_out=len(test_x),
            duration_seconds=wall,
            cost=total_cost,
            simulated_seconds=simulated,
            extra={"accuracy": accuracy, "epochs": epochs,
                   "final_loss": losses[-1]},
        )

    @staticmethod
    def _extract(dataset: DataSet) -> tuple[np.ndarray, np.ndarray]:
        """Features + integer labels from a labelled table.

        Expects the mixture-table convention: numeric feature columns
        with the true class in the last column.
        """
        schema = dataset.metadata.get("schema", ())
        if not schema or schema[-1] != "true_component":
            raise ExecutionError(
                "MLP workload expects a labelled feature table "
                "(mixture-table schema with a true_component column)"
            )
        rows = np.asarray(dataset.records, dtype=np.float64)
        return rows[:, :-1], rows[:, -1].astype(np.int64)
