(** Eigenvalues of general (nonsymmetric) real dense matrices:
    Householder reduction to upper Hessenberg form followed by the
    Francis implicit double-shift QR iteration.

    Needed by [Mrm_mmbm.Mmbm.decay_rate], the tail decay rate of the
    stationary level: minus the largest real part among the eigenvalues
    of the density exponent [H]. The spectral fluid-queue oracle of the
    test suite uses it too. Eigenvalues only. *)

val eigenvalues : Dense.t -> Complex.t array
(** All [n] eigenvalues (with multiplicity), in unspecified order.
    Accuracy is ~1e-12 on well-conditioned spectra and degrades to
    ~sqrt(epsilon) on defective ones, as is intrinsic to the problem.
    @raise Invalid_argument on non-square input.
    @raise Failure if the QR iteration fails to converge (more than 40
    iterations for some eigenvalue). *)

val hessenberg : Dense.t -> Dense.t
(** The orthogonally-similar upper Hessenberg form (exposed for tests:
    similarity preserves trace and eigenvalues). *)
