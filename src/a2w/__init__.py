"""Desk-scale acoustics-to-word CTC toolkit.

From-scratch BLSTM acoustic models trained with an exact CTC loss and a
curriculum/momentum/dropout recipe, decoded by greedy peak-picking, with a
joint word+character target mode that spells each word before recognizing
it (useful for out-of-vocabulary output).
"""

__version__ = "0.1.0"
