/* Inner-loop kernels over OCaml float arrays.
 *
 * An OCaml [float array] is already a flat, unboxed, C-contiguous buffer
 * of doubles (the "flat float array" representation), so these stubs read
 * it in place — no Bigarray wrapper, no copy.  Every stub is [@@noalloc]:
 * it allocates nothing on the OCaml heap and makes no callbacks, so the
 * arrays cannot move while a kernel runs (a domain only services a
 * stop-the-world request at an allocation or polling point).
 *
 * Determinism contract (see DESIGN.md §11): every kernel performs the
 * SAME floating-point operations in the SAME order as its pure-OCaml
 * reference in Kernel.Ref, so results are bit-for-bit identical.  The
 * build passes -ffp-contract=off so the compiler cannot fuse a*b+c into
 * an FMA (which would round differently from the reference).  Loops that
 * only compare, count, or sum integers are exact by construction.
 */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <math.h>
#include <stdlib.h>
#include <string.h>

/* Flat float array -> double*.  Valid for the duration of a noalloc stub. */
#define DBL(v) ((double *)Op_val(v))
/* Element i of an OCaml int array (tagged immediates). */
#define IDX(v, i) Long_val(Field((v), (i)))

/* ---------------------------------------------------------------- counts */

/* #{ i in [lo, hi] : dist2(st[offs[i]..], q[qoff..]) <= r2 }.  Same
 * accumulation order (j = 0..dim-1) as Vec.dist_sq_to_row / dist_sq_rows. */
CAMLprim value pc_count_within(value st, value offs, value vlo, value vhi,
                               value q, value vqoff, value vdim, value vr2)
{
  const double *s = DBL(st);
  const double *qp = DBL(q) + Long_val(vqoff);
  long lo = Long_val(vlo), hi = Long_val(vhi), dim = Long_val(vdim);
  double r2 = Double_val(vr2);
  long c = 0;
  for (long i = lo; i <= hi; i++) {
    const double *row = s + IDX(offs, i);
    double acc = 0.;
    for (long j = 0; j < dim; j++) {
      double d = row[j] - qp[j];
      acc += d * d;
    }
    if (acc <= r2) c++;
  }
  return Val_long(c);
}

CAMLprim value pc_count_within_bc(value *argv, int argn)
{
  (void)argn;
  return pc_count_within(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                         argv[6], argv[7]);
}

/* ------------------------------------------------------------- distances */

/* out[i] = dist(q[qoff..], st[offs[i]..]) for i in [0, n). */
CAMLprim value pc_dists_to_rows(value st, value offs, value vn, value q,
                                value vqoff, value vdim, value out)
{
  const double *s = DBL(st);
  const double *qp = DBL(q) + Long_val(vqoff);
  double *o = DBL(out);
  long n = Long_val(vn), dim = Long_val(vdim);
  for (long i = 0; i < n; i++) {
    const double *row = s + IDX(offs, i);
    double acc = 0.;
    for (long j = 0; j < dim; j++) {
      double d = qp[j] - row[j];
      acc += d * d;
    }
    o[i] = sqrt(acc);
  }
  return Val_unit;
}

CAMLprim value pc_dists_to_rows_bc(value *argv, int argn)
{
  (void)argn;
  return pc_dists_to_rows(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                          argv[6]);
}

/* ---------------------------------------------------------------- sorting */

/* In-place quicksort (median-of-three, insertion sort below 16) on a
 * double buffer.  The inputs are distances — never NaN, never -0.0 — so
 * the sorted sequence is the unique ascending ordering and agrees with
 * Array.sort Float.compare on the same multiset. */
static void ins_sort_d(double *a, long lo, long hi)
{
  for (long i = lo + 1; i <= hi; i++) {
    double x = a[i];
    long j = i - 1;
    while (j >= lo && a[j] > x) {
      a[j + 1] = a[j];
      j--;
    }
    a[j + 1] = x;
  }
}

static void qsort_d(double *a, long lo, long hi)
{
  while (hi - lo > 15) {
    long mid = lo + (hi - lo) / 2;
    double p0 = a[lo], p1 = a[mid], p2 = a[hi];
    double pivot = p0 < p1 ? (p1 < p2 ? p1 : (p0 < p2 ? p2 : p0))
                           : (p0 < p2 ? p0 : (p1 < p2 ? p2 : p1));
    long i = lo, j = hi;
    while (i <= j) {
      while (a[i] < pivot) i++;
      while (a[j] > pivot) j--;
      if (i <= j) {
        double t = a[i];
        a[i] = a[j];
        a[j] = t;
        i++;
        j--;
      }
    }
    /* Recurse into the smaller side, loop on the larger. */
    if (j - lo < hi - i) {
      qsort_d(a, lo, j);
      lo = i;
    } else {
      qsort_d(a, i, hi);
      hi = j;
    }
  }
  ins_sort_d(a, lo, hi);
}

/* Bucket of x >= 0 under scale = nb / max: floor(x * scale), clamped to
 * the last bucket (x = max may round to nb). */
static inline long bucket_of(double x, double scale, long nb)
{
  long b = (long)(x * scale); /* x * scale >= 0: truncation is floor */
  return b < nb ? b : nb - 1;
}

/* Ascending sort of a dense-index row: a bucket sort in expected linear
 * time.  bucket_of is monotone in x (a correctly rounded product by a
 * positive constant and floor both are), so x < y whenever
 * bucket_of(x) < bucket_of(y): concatenating the buckets, each sorted by
 * qsort_d, gives the unique ascending order of the multiset — the same
 * bits as qsort_d alone.  Rows of at most 64 entries, rows holding a
 * negative, NaN or +inf entry (never a distance), a zero maximum, a
 * non-finite scale (subnormal-only rows) and a failed scratch allocation
 * all take qsort_d directly.  A bucket holding most of the row
 * (all-equal rows, one far outlier) is sorted by qsort_d, so the worst
 * case stays O(n log n). */
CAMLprim value pc_sort_floats(value arr, value vlen)
{
  double *a = DBL(arr);
  long n = Long_val(vlen);
  if (n <= 64) {
    if (n > 1) qsort_d(a, 0, n - 1);
    return Val_unit;
  }
  double max = 0.;
  for (long i = 0; i < n; i++) {
    double x = a[i];
    if (!(x >= 0.)) {
      qsort_d(a, 0, n - 1);
      return Val_unit;
    }
    if (x > max) max = x;
  }
  long nb = n;
  double scale = (double)nb / max;
  long *start = NULL;
  double *tmp = NULL;
  if (isfinite(max) && isfinite(scale)) { /* max = 0 gives scale = +inf */
    start = malloc((size_t)(nb + 1) * sizeof(long));
    tmp = malloc((size_t)n * sizeof(double));
  }
  if (start == NULL || tmp == NULL) {
    free(start);
    free(tmp);
    qsort_d(a, 0, n - 1);
    return Val_unit;
  }
  memset(start, 0, (size_t)(nb + 1) * sizeof(long));
  for (long i = 0; i < n; i++) start[bucket_of(a[i], scale, nb) + 1]++;
  for (long b = 0; b < nb; b++) start[b + 1] += start[b];
  /* start[b] is now the first slot of bucket b; scatter advances it to
   * the first slot of bucket b + 1. */
  for (long i = 0; i < n; i++) tmp[start[bucket_of(a[i], scale, nb)]++] = a[i];
  memcpy(a, tmp, (size_t)n * sizeof(double));
  long lo = 0;
  for (long b = 0; b < nb; b++) {
    if (start[b] - lo > 1) qsort_d(a, lo, start[b] - 1);
    lo = start[b];
  }
  free(start);
  free(tmp);
  return Val_unit;
}

/* k-th smallest (1-based) by quickselect; destroys the scratch buffer.
 * Returns the same value as "sort ascending; take [k-1]" — the k-th order
 * statistic of the multiset. */
CAMLprim double pc_kth_smallest_nat(value arr, value vlen, value vk)
{
  double *a = DBL(arr);
  long lo = 0, hi = Long_val(vlen) - 1, k = Long_val(vk) - 1;
  while (hi > lo) {
    if (hi - lo < 16) {
      ins_sort_d(a, lo, hi);
      break;
    }
    long mid = lo + (hi - lo) / 2;
    double p0 = a[lo], p1 = a[mid], p2 = a[hi];
    double pivot = p0 < p1 ? (p1 < p2 ? p1 : (p0 < p2 ? p2 : p0))
                           : (p0 < p2 ? p0 : (p1 < p2 ? p2 : p1));
    long i = lo, j = hi;
    while (i <= j) {
      while (a[i] < pivot) i++;
      while (a[j] > pivot) j--;
      if (i <= j) {
        double t = a[i];
        a[i] = a[j];
        a[j] = t;
        i++;
        j--;
      }
    }
    if (k <= j) hi = j;
    else if (k >= i) lo = i;
    else break; /* j < k < i: a[k] already in final position */
  }
  return a[k];
}

CAMLprim value pc_kth_smallest_byte(value arr, value vlen, value vk)
{
  return caml_copy_double(pc_kth_smallest_nat(arr, vlen, vk));
}

/* ------------------------------------------------- batched radius counts */

/* row: ascending distances, length len.  radii: ascending, length nr.
 * out[j*stride + col] = #{ x in row : x <= radii[j] } for j in [0, nr).
 * Exact integer counts, so strategy choice is free: binary search per
 * radius when nr is small, a single two-pointer merge when nr is large. */
CAMLprim value pc_counts_le_sorted(value row, value vlen, value radii,
                                   value vnr, value out, value vstride,
                                   value vcol)
{
  const double *a = DBL(row);
  const double *r = DBL(radii);
  long len = Long_val(vlen), nr = Long_val(vnr);
  long stride = Long_val(vstride), col = Long_val(vcol);
  long log2len = 1;
  while ((1L << log2len) < len + 1) log2len++;
  if (nr * log2len <= len + nr) {
    for (long j = 0; j < nr; j++) {
      /* upper_bound: count of entries <= r[j] */
      long lo = 0, hi = len;
      while (lo < hi) {
        long mid = (lo + hi) / 2;
        if (a[mid] <= r[j]) lo = mid + 1;
        else hi = mid;
      }
      Field(out, j * stride + col) = Val_long(lo);
    }
  } else {
    long p = 0;
    for (long j = 0; j < nr; j++) {
      while (p < len && a[p] <= r[j]) p++;
      Field(out, j * stride + col) = Val_long(p);
    }
  }
  return Val_unit;
}

CAMLprim value pc_counts_le_sorted_bc(value *argv, int argn)
{
  (void)argn;
  return pc_counts_le_sorted(argv[0], argv[1], argv[2], argv[3], argv[4],
                             argv[5], argv[6]);
}

/* ------------------------------------------------------ capped top-k avg */

/* Mean of the k largest min(cap, counts[off+i]) over i in [0, len).
 * Counting-sort histogram: counts are ints in [0, cap] after capping, so
 * the k largest are read off the top buckets.  The sum is exact integer
 * arithmetic; the reference's float sum of the same integers is exact
 * too (all values and partial sums < 2^53), so the results are
 * bit-identical. */
CAMLprim double pc_top_avg_capped_nat(value counts, value voff, value vlen,
                                      value vcap, value vk)
{
  long off = Long_val(voff), len = Long_val(vlen);
  long cap = Long_val(vcap), k = Long_val(vk);
  long *hist = (long *)calloc((size_t)cap + 1, sizeof(long));
  if (hist == NULL) return -1.; /* caller guards: calloc failure is fatal upstream */
  for (long i = 0; i < len; i++) {
    long c = IDX(counts, off + i);
    if (c > cap) c = cap;
    hist[c]++;
  }
  long long sum = 0;
  long remaining = k;
  for (long v = cap; v >= 0 && remaining > 0; v--) {
    long take = hist[v] < remaining ? hist[v] : remaining;
    sum += (long long)take * v;
    remaining -= take;
  }
  free(hist);
  return (double)sum / (double)k;
}

CAMLprim value pc_top_avg_capped_byte(value counts, value voff, value vlen,
                                      value vcap, value vk)
{
  return caml_copy_double(pc_top_avg_capped_nat(counts, voff, vlen, vcap, vk));
}

/* -------------------------------------------------------- JL projection */

/* out[i*out_dim + r] = scale * dot(mat[r*in_dim ..], st[offs[i] ..]).
 * Inner accumulation in j order, then one multiply by scale — exactly
 * Vec.dot_rows followed by ( *. scale), as in the reference. */
CAMLprim value pc_jl_project(value mat, value st, value offs, value vn,
                             value vin, value vout_dim, value vscale,
                             value out)
{
  const double *m = DBL(mat);
  const double *s = DBL(st);
  double *o = DBL(out);
  long n = Long_val(vn), in_dim = Long_val(vin), out_dim = Long_val(vout_dim);
  double scale = Double_val(vscale);
  for (long i = 0; i < n; i++) {
    const double *x = s + IDX(offs, i);
    double *orow = o + i * out_dim;
    for (long r = 0; r < out_dim; r++) {
      const double *mrow = m + r * in_dim;
      double acc = 0.;
      for (long j = 0; j < in_dim; j++) acc += mrow[j] * x[j];
      orow[r] = scale * acc;
    }
  }
  return Val_unit;
}

CAMLprim value pc_jl_project_bc(value *argv, int argn)
{
  (void)argn;
  return pc_jl_project(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                       argv[6], argv[7]);
}

/* ------------------------------------------------------------- row sums */

/* acc[j] += st[sel[s] + j], rows in s order then coordinates in j order —
 * the exact accumulation order of Noisy_avg.run_rows. */
CAMLprim value pc_sum_rows(value st, value sel, value vm, value vdim,
                           value acc)
{
  const double *s = DBL(st);
  double *a = DBL(acc);
  long m = Long_val(vm), dim = Long_val(vdim);
  for (long r = 0; r < m; r++) {
    const double *row = s + IDX(sel, r);
    for (long j = 0; j < dim; j++) a[j] += row[j];
  }
  return Val_unit;
}

/* --------------------------------------------------------- arg min / max */

/* Index of the center (row j of the flat k x dim matrix) nearest to
 * st[off..]; strict < keeps the first of equals, like Kmeans.assign_rows. */
CAMLprim value pc_argmin_center(value st, value voff, value centers, value vk,
                                value vdim)
{
  const double *p = DBL(st) + Long_val(voff);
  const double *c = DBL(centers);
  long k = Long_val(vk), dim = Long_val(vdim);
  long best = 0;
  double best_d = INFINITY;
  for (long j = 0; j < k; j++) {
    const double *row = c + j * dim;
    double acc = 0.;
    for (long l = 0; l < dim; l++) {
      double d = p[l] - row[l];
      acc += d * d;
    }
    if (acc < best_d) {
      best_d = acc;
      best = j;
    }
  }
  return Val_long(best);
}

/* Index i maximizing dist2(st[offs[i]..], q[qoff..]); strict > keeps the
 * first of equals, like Seb.farthest_row. */
CAMLprim value pc_argmax_dist(value st, value offs, value vn, value q,
                              value vqoff, value vdim)
{
  const double *s = DBL(st);
  const double *qp = DBL(q) + Long_val(vqoff);
  long n = Long_val(vn), dim = Long_val(vdim);
  long best = 0;
  double best_d = -INFINITY;
  for (long i = 0; i < n; i++) {
    const double *row = s + IDX(offs, i);
    double acc = 0.;
    for (long j = 0; j < dim; j++) {
      double d = row[j] - qp[j];
      acc += d * d;
    }
    if (acc > best_d) {
      best_d = acc;
      best = i;
    }
  }
  return Val_long(best);
}

CAMLprim value pc_argmax_dist_bc(value *argv, int argn)
{
  (void)argn;
  return pc_argmax_dist(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5]);
}

/* ------------------------------------------------- k-means++ seed update */

/* dist2[i] = min(dist2[i], dist2(st[i*dim..], centers[coff..])) — the
 * contiguous-rows layout Kmeans builds internally. */
CAMLprim value pc_min_dist2_update(value st, value vn, value vdim,
                                   value centers, value vcoff, value dist2)
{
  const double *s = DBL(st);
  const double *c = DBL(centers) + Long_val(vcoff);
  double *d2 = DBL(dist2);
  long n = Long_val(vn), dim = Long_val(vdim);
  for (long i = 0; i < n; i++) {
    const double *row = s + i * dim;
    double acc = 0.;
    for (long j = 0; j < dim; j++) {
      double d = row[j] - c[j];
      acc += d * d;
    }
    if (acc < d2[i]) d2[i] = acc;
  }
  return Val_unit;
}

CAMLprim value pc_min_dist2_update_bc(value *argv, int argn)
{
  (void)argn;
  return pc_min_dist2_update(argv[0], argv[1], argv[2], argv[3], argv[4],
                             argv[5]);
}

/* -------------------------------------- multi-radius leaf contributions */

/* One-query-many-radii leaf step: for each point idx[lo..hi], compute d2
 * once, find the smallest j in [jlo, jhi) with d2 <= r2s[j] (r2s
 * ascending), and record the membership as a difference-array update
 * (acc[j] += 1, acc[jhi] -= 1); the caller prefix-sums acc into
 * per-radius counts.  Exactly the counts of per-radius leaf scans. */
CAMLprim value pc_leaf_multi_count(value st, value idx, value vlo, value vhi,
                                   value q, value vqoff, value vdim,
                                   value r2s, value vjlo, value vjhi,
                                   value acc)
{
  const double *s = DBL(st);
  const double *qp = DBL(q) + Long_val(vqoff);
  const double *r2 = DBL(r2s);
  long lo = Long_val(vlo), hi = Long_val(vhi), dim = Long_val(vdim);
  long jlo = Long_val(vjlo), jhi = Long_val(vjhi);
  if (jlo >= jhi) return Val_unit;
  for (long i = lo; i <= hi; i++) {
    const double *row = s + IDX(idx, i);
    double acc_d = 0.;
    for (long j = 0; j < dim; j++) {
      double d = row[j] - qp[j];
      acc_d += d * d;
    }
    if (acc_d <= r2[jhi - 1]) {
      long a = jlo, b = jhi - 1;
      while (a < b) {
        long mid = (a + b) / 2;
        if (acc_d <= r2[mid]) b = mid;
        else a = mid + 1;
      }
      Field(acc, a) = Val_long(IDX(acc, a) + 1);
      Field(acc, jhi) = Val_long(IDX(acc, jhi) - 1);
    }
  }
  return Val_unit;
}

CAMLprim value pc_leaf_multi_count_bc(value *argv, int argn)
{
  (void)argn;
  return pc_leaf_multi_count(argv[0], argv[1], argv[2], argv[3], argv[4],
                             argv[5], argv[6], argv[7], argv[8], argv[9],
                             argv[10]);
}
