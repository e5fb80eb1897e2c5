(** Random distributions used by workload generators.

    The Zipfian sampler matches the access pattern of the Retwis
    experiments in the paper (§5.1.2, §5.3): keys are drawn from
    [\[0, n)] with probability proportional to [1 / (rank+1)^theta]. *)

type zipf
(** Precomputed Zipfian sampler over [n] items.  Immutable: all of a
    draw's randomness comes from the {!Rng.t} passed to {!zipf_sample},
    so any number of clients can share one sampler and each draws
    exactly what it would from a sampler of its own. *)

val zipf : n:int -> theta:float -> zipf
(** [zipf ~n ~theta] precomputes a sampler: an n-entry cumulative
    distribution, O(n) time ([n] calls to [Float.pow]) and O(n) memory.
    Build one per run and share it across that run's clients; a
    process-wide cache would instead be state shared across the
    domains of a parallel sweep.
    [theta = 0.] degenerates to the uniform distribution.  Raises
    [Invalid_argument] if [n <= 0] or [theta < 0.]. *)

val zipf_sample : zipf -> Rng.t -> int
(** Draw an item index in [\[0, n)]; index 0 is the hottest item. *)

val zipf_n : zipf -> int
(** Number of items the sampler was built for. *)

val zipf_theta : zipf -> float
(** Skew parameter the sampler was built with. *)

val zipf_pmf : zipf -> int -> float
(** [zipf_pmf z i] is the probability of drawing item [i]. *)

val exponential : Rng.t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)

val uniform_int : Rng.t -> lo:int -> hi:int -> int
(** Uniform integer in the inclusive range [\[lo, hi\]]. *)

val nurand : Rng.t -> a:int -> x:int -> y:int -> int
(** TPC-C NURand(A, x, y) non-uniform random function (clause 2.1.6),
    with C fixed to 0 for reproducibility. *)
