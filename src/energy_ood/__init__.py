"""Feature-space OOD detection via an energy-corrected Gaussian mixture.

Fits a mixture of class-conditional Gaussians (tied covariance) to
in-distribution features, trains a small MLP energy correction on top with
Langevin-sampled negatives, and scores OOD-ness with that or with the
baseline detectors (Mahalanobis, KNN, MSP, temperature-scaled MSP,
energy-from-logits). Evaluation reports AUROC and FPR at 95% TPR.
"""
