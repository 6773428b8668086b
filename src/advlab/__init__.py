"""advlab: a desk-scale lab for the robustness / privacy / generalization
trade-offs of adversarial training.

Train an ERM model and an adversarially trained model from the same
initialization on the same batches, measure how much the attack inflates
worst-case gradient norms (the per-iteration intensity and its fourth-power
composite), convert those statistics into a differential-privacy budget
under a Laplace gradient-noise model, turn the budget into stability and
generalization bounds, and check the predictions against threshold
membership-inference attacks and measured generalization gaps across an
attack-radius sweep.
"""

__version__ = "0.1.0"
