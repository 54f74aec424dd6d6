"""Mining clients: decision trees, Naive Bayes, baselines, extensions."""

from .baselines import (
    build_cc_from_rows,
    extract_all_fit,
    grow_in_memory,
    sql_counting_fit,
)
from .criteria import (
    ChiSquare,
    GainRatio,
    GiniGain,
    InformationGain,
    SplitCriterion,
    entropy,
    gini,
    make_criterion,
)
from .evaluation import (
    ClassReport,
    EvaluationReport,
    confusion_matrix,
    cross_validate,
    evaluate,
    train_test_split,
)
from .export import (
    in_database_accuracy,
    leaf_predicates,
    predict_in_database,
    tree_to_sql,
    tree_to_statement,
)
from .decision_tree import DecisionTreeClassifier
from .discretize import (
    Discretizer,
    equal_frequency_edges,
    equal_width_edges,
    mdl_entropy_edges,
)
from .growth import GrowthPolicy, is_terminal_before_counting, partition_node
from .naive_bayes import NaiveBayesClassifier
from .prune import pessimistic_errors, prune
from .rules import Rule, RuleList, extract_rules, simplify_conditions
from .serialize import (
    load_naive_bayes,
    load_tree,
    naive_bayes_from_dict,
    naive_bayes_to_dict,
    save_naive_bayes,
    save_tree,
    tree_from_dict,
    tree_to_dict,
)
from .splits import (
    CandidateSplit,
    ChildSpec,
    best_split,
    best_splits,
    child_attributes,
)
from .tree import DecisionTree, NodeState, TreeNode

__all__ = [
    "CandidateSplit",
    "ChiSquare",
    "ClassReport",
    "EvaluationReport",
    "confusion_matrix",
    "cross_validate",
    "evaluate",
    "in_database_accuracy",
    "leaf_predicates",
    "predict_in_database",
    "train_test_split",
    "tree_to_sql",
    "tree_to_statement",
    "ChildSpec",
    "DecisionTree",
    "DecisionTreeClassifier",
    "Discretizer",
    "GainRatio",
    "GiniGain",
    "GrowthPolicy",
    "InformationGain",
    "NaiveBayesClassifier",
    "NodeState",
    "SplitCriterion",
    "TreeNode",
    "best_split",
    "best_splits",
    "build_cc_from_rows",
    "child_attributes",
    "entropy",
    "equal_frequency_edges",
    "equal_width_edges",
    "extract_all_fit",
    "gini",
    "grow_in_memory",
    "is_terminal_before_counting",
    "make_criterion",
    "mdl_entropy_edges",
    "partition_node",
    "pessimistic_errors",
    "Rule",
    "RuleList",
    "extract_rules",
    "simplify_conditions",
    "load_naive_bayes",
    "load_tree",
    "naive_bayes_from_dict",
    "naive_bayes_to_dict",
    "save_naive_bayes",
    "save_tree",
    "tree_from_dict",
    "tree_to_dict",
    "prune",
    "sql_counting_fit",
]
