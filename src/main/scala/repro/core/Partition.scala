package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** A materialised row partition (paper Def. 3.8): the input dataframe plus a
  * label column, where rows labelled null form the ignore-set R̂.
  *
  * @param method  "frequency" | "numeric" | "many-to-one"
  * @param attr    the attribute the partition was requested for (A)
  * @param via     for many-to-one: the coarser attribute B actually labelled on
  * @param labeled input dataframe with [[Partition.LabelCol]] appended
  * @param sets    labels of the non-ignore sets-of-rows (distinct, non-null)
  */
final case class RowPartition(method: String, attr: String, via: Option[String],
                              labeled: DataFrame, sets: Seq[String]) {
  /** Attribute whose values name the sets (B for many-to-one, else A). */
  def labelAttr: String = via.getOrElse(attr)
}

/** The three partition methods of §3.5. All run as Spark aggregations to find
  * the set labels, then label rows with a plain column expression, so the
  * labelled dataframe stays lazy and re-usable across contribution passes.
  *
  * `candidatesMulti` computes each quantity once for all set counts: one
  * top-k query covers A and every mined B, and one quantile pass covers every
  * numeric bin count. A column profile (approximate distinct counts) can be
  * shared by all targets on the same input. The column statistics live
  * here: `profile`, `quantiles` and `perColumn`.
  */
object Partition {

  /** Name of the synthetic label column added to partitioned inputs. */
  val LabelCol = "__fedex_set"

  /** Many-to-one label attributes B may have at most this many values. */
  private val MaxLabelValues = 1000L

  /** Approximate distinct count of every column of an input. */
  private[repro] type Profile = Map[String, Long]

  /** The input's profile: `profile` of every column but the label. */
  private[repro] def profile(df: DataFrame): Profile = profile(df, df.columns.filterNot(_ == LabelCol).toSeq)

  /** The approximate distinct count of each of `columns`, in one
    * aggregation: what the many-to-one pre-filter, the KS key spaces and
    * SEEDB's dimensions read.
    */
  private[repro] def profile(df: DataFrame, columns: Seq[String]): Profile =
    perColumn(df, columns)(c => approx_count_distinct(col(c)))(_.getLong(_))

  /** One aggregate `agg` per column of `columns`, in one `select`, each read
    * back from the result row by `read` at the column's index; no query
    * without columns.
    */
  private[core] def perColumn[T](df: DataFrame, columns: Seq[String])(agg: String => Column)
                                (read: (Row, Int) => T): Map[String, T] =
    if (columns.isEmpty) Map.empty
    else {
      val row = df.select(columns.map(agg): _*).head()
      columns.zipWithIndex.map { case (c, i) => c -> read(row, i) }.toMap
    }

  /** The quantile rule: `approx_percentile` at `probs` of the column's
    * non-null, non-NaN values as doubles, at accuracy 1000, the aggregate
    * `approxQuantile` runs for a relative error of 0.001. Values are read
    * with -0.0 as 0.0: at a tie of the two zeros, which one a quantile
    * returns depends on how the rows split into partitions.
    */
  private[core] def quantiles(column: String, probs: Seq[Double]): Column = {
    val v = col(column).cast("double") + 0.0 // -0.0 + 0.0 is 0.0
    approx_percentile(when(!isnan(v), v), lit(probs.toArray), lit(1000))
  }

  /** Frequency-based partition: one set per top-`n` most frequent value of
    * `attr`; remaining rows (and nulls) fall into the ignore-set.
    */
  def frequency(df: DataFrame, attr: String, n: Int): RowPartition = {
    require(n >= 1, "need at least one set")
    byValues("frequency", df, attr, None, topValues(df, Seq(attr), n)(attr))
  }

  /** The `k` most frequent non-null values (as strings) of each of `attrs`,
    * ordered by (count desc, value asc). The order is total, so the top `n`
    * for any n ≤ k is a prefix. One aggregation covers every attribute.
    */
  private def topValues(df: DataFrame, attrs: Seq[String], k: Int): Map[String, Seq[String]] = {
    val tagged = attrs.zipWithIndex.map { case (a, i) =>
      struct(lit(i).as("i"), col(a).cast("string").as("v"))
    }
    val rank = Window.partitionBy("i").orderBy(desc("count"), asc("v"))
    val rows = df.select(explode(array(tagged: _*)).as("t"))
      .select("t.i", "t.v").where(col("v").isNotNull)
      .groupBy("i", "v").count()
      .withColumn("r", row_number().over(rank)).where(col("r") <= k)
      .collect()
    val top = rows.groupBy(_.getInt(0))
    attrs.zipWithIndex.map { case (a, i) =>
      a -> top.getOrElse(i, Array.empty).sortBy(_.getInt(3)).map(_.getString(1)).toSeq
    }.toMap
  }

  /** Partition labelling each row whose `labelAttr` value is one of `sets`. */
  private def byValues(method: String, df: DataFrame, attr: String, via: Option[String],
                       sets: Seq[String]): RowPartition = {
    val v = col(via.getOrElse(attr)).cast("string")
    val labelled =
      if (sets.isEmpty) df.withColumn(LabelCol, lit(null).cast("string"))
      else df.withColumn(LabelCol, when(v.isin(sets: _*), v))
    RowPartition(method, attr, via, labelled, sets)
  }

  /** Numeric equal-frequency binning: `n` sets covering value intervals of
    * `attr` that hold (approximately) equal row counts. The ignore-set is
    * empty apart from null values. Skewed columns may collapse to fewer bins
    * when quantile boundaries coincide.
    */
  def numericBins(df: DataFrame, attr: String, n: Int): RowPartition =
    numericBinsMulti(df, attr, Seq(n)).head

  /** `numericBins` for every count in `ns`, from one aggregation: min, max
    * and the `quantiles` of the union of every n's probabilities. A quantile
    * does not depend on which other probabilities are asked with it, and
    * equal fractions k/n are the same double, so each n gets the bounds it
    * would get alone.
    */
  private def numericBinsMulti(df: DataFrame, attr: String, ns: Seq[Int]): Seq[RowPartition] = {
    require(ns.forall(_ >= 1), "need at least one bin")
    require(Ks.isNumeric(df, attr), s"numeric partition needs a numeric column, got $attr")
    val probsOf  = ns.map(n => (1 until n).map(_.toDouble / n))
    val allProbs = probsOf.flatten.distinct
    // Null and NaN rows are dropped before aggregating: NaN would be the max.
    val named  = df.select(col(attr).cast("double").as("__v")).na.drop()
    val bounds = Option.when(allProbs.nonEmpty)(quantiles("__v", allProbs))
    val stats  = named.agg(min("__v"), max("__v") +: bounds.toSeq: _*).head()
    if (stats.isNullAt(0)) // all-null column: single empty partition
      return ns.map(_ => RowPartition("numeric", attr, None,
        df.withColumn(LabelCol, lit(null).cast("string")), Seq.empty))
    // -0.0 read as 0.0, as `quantiles` reads it: min and max return either zero at a tie
    val lo = stats.getDouble(0) + 0.0; val hi = stats.getDouble(1) + 0.0
    val quantile = if (allProbs.isEmpty) Map.empty[Double, Double]
                   else allProbs.zip(stats.getSeq[Double](2)).toMap
    probsOf.map { probs =>
      val bounds = probs.map(quantile).distinct.sorted
      val edges  = (lo +: bounds :+ hi).distinct.sorted
      val labels =
        if (edges.size < 2) Seq(f"[$lo%.4g, $hi%.4g]")
        else edges.sliding(2).map(w => f"[${w.head}%.4g, ${w.last}%.4g]").toSeq
      val inner = edges.slice(1, edges.size - 1) // cut points between bins
      val v     = col(attr).cast("double")
      val expr0 = inner.zipWithIndex.foldLeft(when(v.isNull, lit(null).cast("string"))) {
        case (acc, (cut, i)) => acc.when(v <= cut, lit(labels(i)))
      }
      RowPartition("numeric", attr, None, df.withColumn(LabelCol, expr0.otherwise(lit(labels.last))), labels)
    }
  }

  /** Mine columns B with a many-to-one relationship from `attr` (§3.5):
    * (1) A functionally determines B and (2) B's partition is strictly
    * coarser. Candidates are pre-filtered to ≤ `MaxLabelValues` distinct
    * values so the resulting explanation stays readable; FD checks for all
    * candidates run in a single aggregation pass.
    */
  def manyToOneTargets(df: DataFrame, attr: String): Seq[String] =
    manyToOneTargets(df, attr, profile(df))

  private def manyToOneTargets(df: DataFrame, attr: String, prof: Profile): Seq[String] = {
    val cardA = prof(attr)
    val pre = df.columns.toSeq.filter { c =>
      c != attr && c != LabelCol && prof(c) > 1 && prof(c) < cardA && prof(c) <= MaxLabelValues
    }
    functionallyDetermined(df, attr, pre)
  }

  /** The columns of `bs` that `attr` functionally determines: within every
    * non-null group of `attr`, at most one distinct non-null value. Both
    * `min` and `max` ignore nulls, so `min(B) <=> max(B)` holds exactly when
    * `countDistinct(B) ≤ 1`; one `groupBy(attr)` pass tests every B.
    */
  private[core] def functionallyDetermined(df: DataFrame, attr: String, bs: Seq[String]): Seq[String] =
    if (bs.isEmpty) Seq.empty
    else {
      val flags = bs.indices.map(i => s"__fd$i")
      val perGroup = bs.zip(flags).map { case (b, f) => (min(col(b)) <=> max(col(b))).as(f) }
      val all = df.where(col(attr).isNotNull).groupBy(col(attr))
        .agg(perGroup.head, perGroup.tail: _*)
        .select(flags.map(f => min(f)): _*)
        .head()
      bs.zipWithIndex.collect { case (b, i) if all.isNullAt(i) || all.getBoolean(i) => b }
    }

  /** All applicable partitions of `df` for explaining via `attr`, for each
    * set count in `ns`: frequency, numeric binning (numeric columns whose
    * cardinality reaches n — below that, frequency already enumerates the
    * values), and many-to-one over each mined coarser attribute B.
    */
  def candidatesMulti(df: DataFrame, attr: String, ns: Seq[Int],
                      enableManyToOne: Boolean = true): Seq[RowPartition] =
    candidatesMulti(df, attr, ns, if (enableManyToOne) Some(profile(df)) else None)

  /** `candidatesMulti` with the input's profile supplied by the caller (None
    * disables many-to-one), so targets on one input share it.
    */
  private[core] def candidatesMulti(df: DataFrame, attr: String, ns: Seq[Int],
                                    prof: Option[Profile]): Seq[RowPartition] = {
    require(ns.forall(_ >= 1), "need at least one set")
    if (ns.isEmpty) return Seq.empty
    val bs  = prof.fold(Seq.empty[String])(manyToOneTargets(df, attr, _))
    val top = topValues(df, attr +: bs, ns.max)
    val binned = ns.filter(n => Ks.isNumeric(df, attr) && top(attr).size >= n)
    val numeric = if (binned.isEmpty) Map.empty[Int, RowPartition]
                  else binned.zip(numericBinsMulti(df, attr, binned)).toMap
    ns.flatMap { n =>
      byValues("frequency", df, attr, None, top(attr).take(n)) +:
        (numeric.get(n).toSeq ++ bs.map(b => byValues("many-to-one", df, attr, Some(b), top(b).take(n))))
    }
  }
}
