"""CoSMIC programming layer: the TABLA-lineage mathematical DSL.

Programmers express a learning algorithm as (1) the partial-gradient
formula, (2) the aggregation operator, and (3) the mini-batch size
(Section 4.1 of the paper). This package provides the lexer, parser, AST,
and semantic analysis for that language.
"""
