"""Frequency-enhanced RAW deblurring network on a self-contained numpy autodiff core."""
