package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Two-sample Kolmogorov–Smirnov statistic (paper Eq. 1).
  *
  * The heavy work — per-value frequency counting — runs as a single Spark
  * aggregation over the tagged union of both sides; the final sup-norm over
  * the two empirical CDFs is a linear driver pass over the (bounded) set of
  * distinct keys. Numeric columns whose distinct count exceeds `maxBins` are
  * bucketised on quantile boundaries of the key-space side first (the
  * statistic is then exact up to one bin's probability mass).
  */
object Ks {

  /** Is `column` of a numeric Spark type in `df`? */
  def isNumeric(df: DataFrame, column: String): Boolean =
    df.schema(column).dataType match {
      case _: NumericType => true
      case _              => false
    }

  /** KS statistic from per-value counts. Keys compare numerically when
    * `numeric`, else lexicographically (the paper orders categorical domains
    * by their value to make the CDF well defined).
    */
  def fromCounts(a: Iterable[(String, Long)], b: Iterable[(String, Long)], numeric: Boolean): Double = {
    val am = a.groupMapReduce(_._1)(_._2)(_ + _)
    val bm = b.groupMapReduce(_._1)(_._2)(_ + _)
    val ta = am.values.sum.toDouble
    val tb = bm.values.sum.toDouble
    if (ta == 0 || tb == 0) return 0.0
    val keys   = (am.keySet ++ bm.keySet).toIndexedSeq
    val sorted = if (numeric) keys.sortBy(_.toDouble) else keys.sorted
    var ca = 0.0; var cb = 0.0; var d = 0.0
    sorted.foreach { k =>
      ca += am.getOrElse(k, 0L) / ta
      cb += bm.getOrElse(k, 0L) / tb
      val diff = math.abs(ca - cb)
      if (diff > d) d = diff
    }
    math.min(1.0, d) // guard against float accumulation pushing past 1
  }

  /** Quantile boundaries for bucketising a high-cardinality numeric column.
    * Returned strictly increasing; may have fewer than `maxBins` cut points
    * on skewed data.
    */
  def boundaries(df: DataFrame, column: String, maxBins: Int): Array[Double] =
    boundariesOf(df, Seq(column), maxBins)(column)

  /** `boundaries` of every column of `columns`, from one aggregation: the
    * `approx_percentile` that `approxQuantile` runs for a relative error of
    * 0.001 (accuracy 1000), over the non-null, non-NaN values.
    */
  private def boundariesOf(df: DataFrame, columns: Seq[String], maxBins: Int): Map[String, Array[Double]] =
    if (columns.isEmpty) Map.empty
    else {
      val probs = lit((1 until maxBins).map(_.toDouble / maxBins).toArray)
      val row = df.select(columns.map { c =>
        val v = col(c).cast("double")
        approx_percentile(when(!isnan(v), v), probs, lit(1000))
      }: _*).head()
      columns.zipWithIndex.map { case (c, i) =>
        c -> (if (row.isNullAt(i)) Array.empty[Double] else row.getSeq[Double](i).toArray.distinct.sorted)
      }.toMap
    }

  /** Index of the bucket `x` falls into for strictly increasing `bounds`
    * (bucket i covers (bounds(i-1), bounds(i)]; 0 covers (-inf, bounds(0)]).
    */
  def bucketOf(bounds: Array[Double])(x: Double): Int = {
    var lo = 0; var hi = bounds.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (x <= bounds(mid)) hi = mid else lo = mid + 1
    }
    lo
  }

  /** How a column's values map to the string keys KS counts, and whether
    * those keys compare numerically.
    */
  final case class KeySpace(key: Column => Column, numeric: Boolean)

  /** The KS key space of each of `columns` of `df`: the raw value for
    * categorical columns and numerics with at most `maxBins` distinct values,
    * a quantile-bucket index for the other numerics. `df` supplies the domain
    * (usually an input, which covers the output's values for the supported
    * ops). At most two aggregations cover every column: one
    * `approx_count_distinct` over the numerics whose count `knownDistinct`
    * lacks (it takes counts from the same function, e.g. `Partition.profile`),
    * and one percentile pass over the high-cardinality ones.
    */
  def keySpaces(df: DataFrame, columns: Seq[String], maxBins: Int,
                knownDistinct: Map[String, Long] = Map.empty): Map[String, KeySpace] = {
    val numeric = columns.distinct.filter(isNumeric(df, _))
    val unknown = numeric.filterNot(knownDistinct.contains)
    val counted =
      if (unknown.isEmpty) Map.empty[String, Long]
      else {
        val row = df.select(unknown.map(c => approx_count_distinct(col(c))): _*).head()
        unknown.zipWithIndex.map { case (c, i) => c -> row.getLong(i) }.toMap
      }
    val distinct = knownDistinct ++ counted
    val bounds   = boundariesOf(df, numeric.filter(distinct(_) > maxBins), maxBins)
    columns.map { c =>
      c -> (if (!numeric.contains(c)) KeySpace(_.cast("string"), numeric = false)
            else bounds.get(c).fold(KeySpace(_.cast("double").cast("string"), numeric = true)) { b =>
              val f = udf((x: java.lang.Double) => if (x == null) null else bucketOf(b)(x).toString)
              KeySpace(x => f(x.cast("double")), numeric = true)
            })
    }.toMap
  }

  /** The key space of one column: `keySpaces` of `column` alone. */
  def keyExpr(statsFrom: DataFrame, column: String, maxBins: Int): KeySpace =
    keySpaces(statsFrom, Seq(column), maxBins)(column)

  /** KS statistic between `a[column]` and `b[column]`. `a` decides
    * type/bucketisation so both sides share one key space.
    */
  def statistic(a: DataFrame, b: DataFrame, column: String, maxBins: Int = 1024): Double = {
    val KeySpace(key, numeric) = keyExpr(a, column, maxBins)
    val tagged = a.select(key(col(column)).as("__k"), lit(0).as("__s"))
      .unionAll(b.select(key(col(column)).as("__k"), lit(1).as("__s")))
      .where(col("__k").isNotNull)
    val cells = tagged.groupBy("__k")
      .agg(sum(when(col("__s") === 0, 1L).otherwise(0L)).as("ca"),
           sum(when(col("__s") === 1, 1L).otherwise(0L)).as("cb"))
      .collect()
    val ca = cells.map(r => r.getString(0) -> r.getLong(1))
    val cb = cells.map(r => r.getString(0) -> r.getLong(2))
    fromCounts(ca, cb, numeric)
  }
}
