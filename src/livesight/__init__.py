"""Foresight-augmented ranking for live-stream rooms.

Two forecasters look ahead from the current time bucket — one predicts the
next few values of the room's statistic panel, the other the next product
category — and their outputs (plus internal encodings) are frozen and fed
as extra features into a multi-task CTR/CVR ranker.
"""
