"""Quantify modality imbalance with Shapley contributions.

Each modality's contribution phi_i is its average marginal accuracy gain over
all orders of switching modalities on (masked evaluation defines the value of
each subset). The imbalance index is the mean absolute pairwise difference of
the phi: 0 means perfectly balanced cooperation, larger means dominance.
"""

from balancelab import MethodSpec, Run, SyntheticSpec, TrainConfig, generate, init_model, split
from balancelab.metrics import shapley, shapley_from_values, imbalance
from balancelab.trainer import fit

# a worked example first: a hand-filled subset-value table
table = {
    frozenset(): 0.25,          # bias-only predictor
    frozenset({0}): 0.60,       # modality 1 alone
    frozenset({1}): 0.40,       # modality 2 alone
    frozenset({0, 1}): 0.70,    # both
}
phi = shapley_from_values(table, 2)
print(f"worked table: phi = ({phi[0]:.3f}, {phi[1]:.3f}), "
      f"imbalance = {imbalance(phi):.3f}")
print(f"efficiency: phi_1 + phi_2 = {sum(phi):.3f} = v(full) - v(empty) = "
      f"{table[frozenset({0, 1})] - table[frozenset()]:.3f}")

# now the same metric on a trained model
spec = SyntheticSpec(2, 4, (12, 12), (3.0, 1.0), 1.0, 2000, seed=21)
data = generate(spec)
train, val, test = split(data, (0.8, 0.1, 0.1), seed=0)
model = init_model([[12, 24, 4], [12, 24, 4]], 4, seed=2)
[(model, _)] = fit(TrainConfig(lr=1e-3, epochs=25), [Run(train, val, model, 1, MethodSpec())])
rep = shapley(model, test)
print("\ntrained model subset values:")
for subset in sorted(rep.subset_values, key=lambda s: (len(s), sorted(s))):
    name = "+".join(str(i + 1) for i in sorted(subset)) or "none"
    print(f"  v({name:>4}) = {rep.subset_values[subset]:.3f}")
print(f"phi = ({rep.phi[0]:.3f}, {rep.phi[1]:.3f})")
print(f"imbalance index = {rep.imbalance:.3f}  (dominant modality: "
      f"{1 + int(rep.phi[1] > rep.phi[0])})")
