package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Uniform row sampling used by FEDEX-SAMPLING (§3.7 "Sampling optimization"):
  * interestingness is computed over a uniform sample of the input rows; all
  * other parts of the algorithm (partitioning, contribution) see full data.
  */
object Sampling {

  /** The default seed of the draw. */
  val Seed = 42L

  /** Uniformly sample `df` down to at most `rows` rows (deterministic in
    * `seed`). Returns `df` unchanged when it is already small enough.
    */
  def uniform(df: DataFrame, rows: Long, seed: Long = Seed): DataFrame = {
    val n = df.count()
    if (n <= rows) df
    else {
      // Slight over-sampling + limit gives an exact cap without a second pass.
      val fraction = math.min(1.0, rows.toDouble / n * 1.1)
      df.sample(withReplacement = false, fraction, seed).limit(rows.toInt)
    }
  }
}

/** Per-column interestingness scores I_A(Q) (paper §3.2): KS exceptionality
  * for filter/join/union, CV diversity for group-by.
  */
object Interestingness {
  import Partition.LabelCol

  /** KS key spaces by (input index, input column). */
  private[core] type KeySpaces = Map[(Int, String), Ks.KeySpace]

  /** Score a single output attribute, one Spark query per source: the
    * per-column reference behind `Contribution.exact`. Returns None when the
    * measure does not apply (diversity over a non-numeric column, an
    * attribute with no source column, the synthetic partition label).
    */
  def score(step: Step, attr: String, maxBins: Int = Ks.MaxBins): Option[Double] =
    if (attr == LabelCol) None
    else step.op match {
      case _: GroupByOp => Option.when(Ks.isNumeric(step.output, attr))(Diversity.cv(step.output, attr))
      case _ =>
        step.sources(attr).map { case (idx, orig) =>
          Ks.statistic(step.inputs(idx).withColumnRenamed(orig, attr), step.output, attr, maxBins)
        }.maxOption
    }

  /** Scores for every output attribute of the step, as `score` gives them,
    * in the full inputs' KS key spaces. With `sampleRows` set, implements
    * FEDEX-SAMPLING: inputs are uniformly sampled, the operation is
    * re-applied to the sample, and scores are computed on the sampled pair.
    */
  def scores(step: Step, attrs: Seq[String], maxBins: Int = Ks.MaxBins,
             sampleRows: Option[Long] = None, seed: Long = Sampling.Seed): Map[String, Double] =
    scores(step, attrs, sampleRows, seed, keySpaces(step, attrs, maxBins, Seq.empty))

  /** `scores` in the key spaces `keys`. A column's I is the `full` of its
    * contributions (Def. 3.3) over the partition whose only set is the
    * ignore-set, so I and its contributions come from one query.
    */
  private[core] def scores(step: Step, attrs: Seq[String], sampleRows: Option[Long], seed: Long,
                           keys: KeySpaces): Map[String, Double] = {
    val sampled = sampleRows.map(k => step.inputs.map(Sampling.uniform(_, k, seed)))
    // Only frames this call drew are cached and unpersisted: an input within
    // the cap comes back as the caller's own frame.
    val drawn = sampled.toSeq.flatMap(_.zip(step.inputs).collect { case (s, in) if s ne in => s })
    val ins   = if (drawn.isEmpty) step.inputs else sampled.get
    val whole = RowPartition("none", "", None, ins.head.withColumn(LabelCol, lit(null).cast("string")), Seq.empty)
    drawn.foreach(_.cache())
    try Contribution.ofTarget(Step(ins, step.op), attrs.distinct.filterNot(_ == LabelCol), Seq(whole), 0, keys)
      .map { case (a, _, r) => a -> r.full }.toMap
    finally drawn.foreach(_.unpersist())
  }

  /** The key space of every source column of `attrs` (none for group-by),
    * read from the full inputs, one `Ks.keySpaces` per input; `known` holds
    * the inputs' profiles, if any.
    */
  private[core] def keySpaces(step: Step, attrs: Seq[String], maxBins: Int,
                              known: Seq[Partition.Profile]): KeySpaces =
    attrs.filterNot(_ == LabelCol).flatMap(step.sources).distinct.groupMap(_._1)(_._2).flatMap { case (i, cols) =>
      Ks.keySpaces(step.inputs(i), cols, maxBins, known.lift(i).getOrElse(Map.empty)).map { case (c, k) => (i, c) -> k }
    }
}
