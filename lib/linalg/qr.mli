(** Householder QR factorization and linear least squares.

    The vector-fitting identification steps are all overdetermined
    least-squares problems; they are solved here via QR without forming
    normal equations. *)

exception Rank_deficient of int

type t
(** Implicit factorization [A = Q·R] of an [m×n] matrix with [m ≥ n]. *)

val factor : Mat.t -> t

val r : t -> Mat.t
(** The upper-triangular [n×n] factor. *)

val apply_qt : t -> Vec.t -> Vec.t
(** [apply_qt f b] computes [Qᵀ b] (length [m]). *)

val solve_r : t -> Vec.t -> Vec.t
(** Back-substitute [R x = c] given the first [n] entries of [c].
    Raises {!Rank_deficient} on a negligible diagonal. *)

val least_squares : Mat.t -> Vec.t -> Vec.t
(** Minimize [‖A x − b‖₂] for [A] of size [m×n], [m ≥ n], full rank. *)

(** {1 Workspace API}

    Allocation-free factorization for hot loops (the fast-VF relocation
    kernel). A {!ws} owns reusable tau/diagonal/scratch buffers plus one
    cached matrix; results of {!factor_into} alias the workspace and are
    invalidated by the next [factor_into] on the same [ws]. Workspaces are
    not thread-safe — use one per worker domain. *)

type ws

val workspace : unit -> ws
(** A fresh, empty workspace. Buffers grow lazily on first use. *)

val ws_matrix : ws -> rows:int -> cols:int -> Mat.t
(** A cached [rows×cols] matrix owned by [ws], zeroed on every call.
    Reused across calls with identical dimensions; reallocated otherwise.
    The same storage backs consecutive calls, so at most one live
    [ws_matrix] per workspace. *)

val factor_into : ws -> Mat.t -> t
(** In-place Householder factorization: [a]'s contents are destroyed and
    become the reflector/R storage of the result. Bit-identical results
    to {!factor} with zero large allocations; tau and diagonal buffers
    come from [ws] and are overwritten by the next [factor_into]. *)

val apply_qt_into : t -> ?off:int -> Vec.t -> unit
(** [apply_qt_into f y] overwrites [y.(off..off+m-1)] with [Qᵀ] applied to
    that slice, in place ([off] defaults to [0]). Same arithmetic as
    {!apply_qt}, no allocation. *)

val apply_qt_mat : t -> Mat.t -> unit
(** [apply_qt_mat f b] overwrites the [m×k] matrix [b] with [Qᵀ·B],
    column-wise bit-identical to {!apply_qt}. Used to push a shared
    left-block factorization onto per-element right blocks. *)

val r22_block : t -> split:int -> Mat.t -> int -> unit
(** [r22_block f ~split dst row] writes the trailing
    [(n-split)×(n-split)] block of [R] into [dst] starting at [row]
    (columns [0..n-split-1]), zeros included below the diagonal. *)

val apply_qt_block : t -> split:int -> Vec.t -> Vec.t -> int -> unit
(** [apply_qt_block f ~split b dst row] computes [Qᵀb] and stores entries
    [split..n-1] into [dst] at offset [row] — the right-hand-side block
    paired with {!r22_block}. *)

val least_squares_into : ws -> Mat.t -> Vec.t -> Vec.t
(** Like {!least_squares} (bit-identical solution) but factors [a] in
    place — destroying it — and stages [Qᵀb] in workspace scratch. Only
    the returned solution vector is allocated. *)

val last_rcond : ws -> float
(** {!rcond_estimate} of the most recent {!factor_into} (or
    {!least_squares_into}) on this workspace; [nan] before the first
    factorization. Read-only — telemetry for the obs rcond series. *)
