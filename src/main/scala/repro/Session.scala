package repro

import org.apache.spark.sql.SparkSession

/** The one way this project starts Spark: tests, bench suites and jobs. */
object Session {

  /** A SparkSession on `SPARK_MASTER` (default `local[*]`) with
    * `SPARK_SHUFFLE_PARTITIONS` shuffle partitions (default 64, not Spark's
    * 200, which small frames pay for in tasks) and broadcast joins off, so
    * joins take the shuffle path at every scale.
    */
  def local(app: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}
